package main

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// sink is what stands in for stderr: it counts the writes it is handed.
type sink struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	writes int
}

func (s *sink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	return s.buf.Write(p)
}

func (s *sink) state() (string, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String(), s.writes
}

func TestInfoLinesAreBufferedAndFlushedByTimer(t *testing.T) {
	var out sink
	logger, _ := newLogger(&out)
	for i := 0; i < 100; i++ {
		logger.Info("request", "n", i)
	}
	if got, _ := out.state(); got != "" {
		t.Fatalf("Info lines reached the sink at once: %q", got)
	}
	deadline := time.Now().Add(20 * logFlushEvery)
	for {
		got, writes := out.state()
		if strings.Count(got, "msg=request") == 100 {
			if writes != 1 {
				t.Fatalf("100 buffered lines took %d writes, want 1", writes)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the timer has not flushed the buffer: %d bytes out", len(got))
		}
		time.Sleep(logFlushEvery / 10)
	}
	// The timer is one-shot and re-arms with the next line.
	logger.Info("again")
	for {
		if got, _ := out.state(); strings.Contains(got, "msg=again") {
			break
		}
		if time.Now().After(deadline.Add(20 * logFlushEvery)) {
			t.Fatal("a line after the first flush was never written")
		}
		time.Sleep(logFlushEvery / 10)
	}
}

func TestFullBufferIsWrittenByTheLineThatFillsIt(t *testing.T) {
	var out sink
	logger, _ := newLogger(&out)
	line := strings.Repeat("x", 1024)
	for i := 0; i < logBufferSize/1024; i++ {
		logger.Info(line)
	}
	if got, writes := out.state(); len(got) < logBufferSize || writes != 1 {
		t.Fatalf("after logging %d KiB the sink holds %d bytes in %d writes, want the backlog in one", logBufferSize>>10, len(got), writes)
	}
}

func TestWarnAndErrorGoOutAtOnceInOrder(t *testing.T) {
	var out sink
	logger, _ := newLogger(&out)
	logger.Info("first")
	logger.With("peer", "x").WithGroup("g").Warn("second")
	got, _ := out.state()
	if i, j := strings.Index(got, "msg=first"), strings.Index(got, "msg=second"); i < 0 || j < i {
		t.Fatalf("after a Warn the sink holds %q, want first then second", got)
	}
	logger.Error("third")
	if got, _ := out.state(); !strings.Contains(got, "msg=third") {
		t.Fatalf("an Error stayed in the buffer: %q", got)
	}
}

func TestFlushDrainsWhatIsBuffered(t *testing.T) {
	var out sink
	logger, flush := newLogger(&out)
	logger.Info("stopped")
	flush()
	if got, _ := out.state(); !strings.Contains(got, "msg=stopped") {
		t.Fatalf("flush left the last line behind: %q", got)
	}
}
