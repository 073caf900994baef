package main

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"time"
)

const (
	// logFlushEvery bounds how long an Info line waits in the log buffer.
	logFlushEvery = 250 * time.Millisecond
	// logBufferSize is how much may wait before the request that logs the
	// next line writes the backlog out itself: the log's only backpressure.
	logBufferSize = 64 << 10
)

// newLogger returns the daemon's logger and the flush to run before exiting.
//
// The server writes one access-log line per request before the last bytes
// of the response go out, so an unbuffered log puts a write(2) to whatever
// stderr is — usually a file, on the filesystem the WAL fsyncs — on every
// request's latency, and the kernel pauses that write whenever it is
// throttling dirty pages. Info lines are therefore collected in memory and
// reach stderr logFlushEvery after the first of them, or when logBufferSize
// of them are waiting, whichever is sooner; a Warn or Error goes out at once
// with everything before it, which covers every os.Exit in main. A SIGKILL
// loses at most the last logFlushEvery of access lines and nothing else:
// writes are the WAL's to keep, not the log's.
func newLogger(w io.Writer) (*slog.Logger, func()) {
	out := &bufferedLog{w: w}
	return slog.New(promptHandler{slog.NewTextHandler(out, nil), out}), out.Flush
}

// bufferedLog is the writer under the text handler. A slow stderr holds up
// the flusher, not the requests logging meanwhile: lines are appended under
// mu and written out under flushing alone. No goroutine stays behind — the
// first line buffered arms a one-shot timer, and an idle server has none.
type bufferedLog struct {
	mu      sync.Mutex
	pending []byte
	armed   bool // a flush is scheduled

	flushing sync.Mutex // one flush at a time, so lines stay in order
	w        io.Writer
}

func (b *bufferedLog) Write(p []byte) (int, error) {
	b.mu.Lock()
	if !b.armed {
		b.armed = true
		time.AfterFunc(logFlushEvery, func() {
			b.mu.Lock()
			b.armed = false
			b.mu.Unlock()
			b.Flush()
		})
	}
	b.pending = append(b.pending, p...)
	full := len(b.pending) >= logBufferSize
	b.mu.Unlock()
	if full {
		b.Flush()
	}
	return len(p), nil
}

func (b *bufferedLog) Flush() {
	b.flushing.Lock()
	defer b.flushing.Unlock()
	b.mu.Lock()
	out := b.pending
	b.pending = nil
	b.mu.Unlock()
	if len(out) > 0 {
		_, _ = b.w.Write(out) // stderr is gone: there is nowhere left to say so
	}
}

// promptHandler flushes the buffer behind every record above Info.
type promptHandler struct {
	slog.Handler
	out *bufferedLog
}

func (h promptHandler) Handle(ctx context.Context, r slog.Record) error {
	err := h.Handler.Handle(ctx, r)
	if r.Level > slog.LevelInfo {
		h.out.Flush()
	}
	return err
}

func (h promptHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return promptHandler{h.Handler.WithAttrs(attrs), h.out}
}

func (h promptHandler) WithGroup(name string) slog.Handler {
	return promptHandler{h.Handler.WithGroup(name), h.out}
}
