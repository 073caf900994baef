package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// samples are the measurements of one client, in milliseconds.
type samples struct {
	read       []float64 // send to last byte, every read
	session    []float64 // a reader's session: the sum of its reads, each send to last byte
	ttfe       []float64 // send to the first estimate of a progressive stream
	streamDone []float64 // the same requests, to the done line
	writeAck   []float64 // due time to acknowledgement
	late       []float64 // how late a paced request was sent
	ok, failed int
	triples    int // acknowledged as inserted or deleted
	firstErr   error
}

func (s *samples) merge(o *samples) {
	s.read = append(s.read, o.read...)
	s.session = append(s.session, o.session...)
	s.ttfe = append(s.ttfe, o.ttfe...)
	s.streamDone = append(s.streamDone, o.streamDone...)
	s.writeAck = append(s.writeAck, o.writeAck...)
	s.late = append(s.late, o.late...)
	s.ok += o.ok
	s.failed += o.failed
	s.triples += o.triples
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// client sends requests on one connection and checks every response.
type client struct {
	c *conn
	d *dataset
	// digest makes the client remember each response it has checked in
	// full, and compare a later response to the same request with it.
	digest bool
	samples
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// do sends r, timing it from `from`, checks the response, and records it. It
// returns how long the request took, or 0 when it failed.
func (cl *client) do(r *request, from time.Time) time.Duration {
	resp, err := cl.c.do(r.wire, from)
	if err == nil {
		if v := r.verified; cl.digest && v != nil {
			if resp.status != 200 || len(resp.body) != v.length || string(resp.etag) != v.etag {
				err = fmt.Errorf("status %d, %d bytes, ETag %s; the warm-up saw %d bytes, ETag %s",
					resp.status, len(resp.body), resp.etag, v.length, v.etag)
			}
		} else {
			err = check(cl.d, r, &resp)
		}
	}
	if err != nil {
		cl.failed++
		if cl.firstErr == nil {
			cl.firstErr = fmt.Errorf("%s %s: %w", r.method, r.target, err)
		}
		return 0
	}
	cl.ok++
	if r.isWrite() {
		r.acked()
		cl.triples += r.want
		cl.writeAck = append(cl.writeAck, ms(resp.total))
		return resp.total
	}
	cl.read = append(cl.read, ms(resp.total))
	if r.progressive() {
		cl.ttfe = append(cl.ttfe, ms(resp.firstLine))
		cl.streamDone = append(cl.streamDone, ms(resp.total))
	}
	if cl.digest && r.verified == nil && len(resp.etag) > 0 {
		r.verified = &digest{length: len(resp.body), etag: string(resp.etag)}
	}
	return resp.total
}

// drive sends the requests of s until end: back to back, or, with a pace,
// one every pace from start on, each timed from when it was due. Every
// round requests of a reader are a session; its time is the sum of theirs,
// which leaves out what the benchmark does between them.
func (cl *client) drive(s stream, pace time.Duration, round int, start, end time.Time) {
	var session time.Duration
	for i := 0; ; i++ {
		if round > 0 && i > 0 && i%round == 0 {
			cl.session = append(cl.session, ms(session))
			session = 0
		}
		now := time.Now()
		if pace > 0 {
			due := start.Add(time.Duration(i) * pace)
			if !due.Before(end) {
				return
			}
			r := s()
			time.Sleep(due.Sub(now))
			cl.late = append(cl.late, max(0, ms(time.Since(due))))
			cl.do(r, due)
			continue
		}
		if !now.Before(end) {
			return
		}
		// The request is built before the clock is read: drawing a session
		// from the model is the benchmark's work, not the server's.
		r := s()
		session += cl.do(r, time.Now())
	}
}

// env is what a run works in: the built server, the data file, and a
// directory for the WAL and the server's log.
type env struct {
	bin, data, dir string
	d              *dataset
	seed           int64
	// Cancelling ctx kills the running server; procs waits for it to end.
	ctx   context.Context
	procs *sync.WaitGroup
}

func (e *env) wal() string { return filepath.Join(e.dir, "wal.log") }

func (e *env) start() (*daemon, error) {
	return startServer(e.ctx, e.procs, e.bin, e.data, e.wal(), filepath.Join(e.dir, "lodvizd.log"))
}

// httpRun is what the run over HTTP measured.
type httpRun struct {
	samples             // of the timed phase
	extraOK   int       // requests of the warm-up and of the final checks that were answered correctly
	elapsed   float64   // seconds the timed phase took
	setups    []float64 // seconds, one per set-up
	serverCPU float64   // seconds of server CPU in the timed phase
	selfCPU   float64   // seconds of benchmark CPU in the timed phase
	rssPeakMB float64
	counts    map[string]float64 // /metrics after the timed phase minus before
	scrapeMS  float64
	walBytes  int64   // growth of the WAL file in the timed phase
	recovery  float64 // seconds from SIGKILL to /healthz on the same WAL; 0 when the server was not killed
}

// runHTTP sets the server up `setups` times (spawn, first /healthz, warm-up),
// then drives the last one for the timed phase and checks what it left.
func runHTTP(e *env, name string, seconds float64, setups int) (*httpRun, error) {
	run := &httpRun{}
	var (
		srv *daemon
		w   *workload
		cls [clients]*client
	)
	defer func() {
		if srv != nil {
			srv.kill()
		}
		for _, cl := range cls {
			if cl != nil {
				cl.c.close()
			}
		}
	}()
	for k := 0; k < setups; k++ {
		if srv != nil {
			srv.kill()
		}
		// A run starts from the data file alone.
		if err := os.Remove(e.wal()); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		var err error
		if w, err = newWorkload(name, e.d, e.seed); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if srv, err = e.start(); err != nil {
			return nil, err
		}
		for c := range cls {
			if cls[c] != nil {
				cls[c].c.close()
			}
			cls[c] = &client{c: &conn{addr: srv.addr}, d: e.d, digest: w.digest}
		}
		for _, r := range w.pre {
			cls[0].do(r, time.Now())
		}
		var wg sync.WaitGroup
		for c, cl := range cls {
			wg.Add(1)
			go func(cl *client, warm []*request) {
				defer wg.Done()
				for _, r := range warm {
					cl.do(r, time.Now())
				}
			}(cl, w.warm[c])
		}
		wg.Wait()
		run.setups = append(run.setups, time.Since(t0).Seconds())
		for _, cl := range cls {
			if cl.failed > 0 {
				return nil, fmt.Errorf("warm-up of %s: %d requests failed, first: %w", name, cl.failed, cl.firstErr)
			}
		}
	}

	// The warm-up's requests are attempts too, but not samples.
	warmed := 0
	for _, cl := range cls {
		warmed += cl.ok
		cl.samples = samples{}
	}
	probe := &conn{addr: srv.addr}
	defer probe.close()
	before, scrape1, err := scrape(probe)
	if err != nil {
		return nil, err
	}
	walBefore := fileSize(e.wal())
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	start := time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c, cl := range cls {
		wg.Add(1)
		go func(c int, cl *client) {
			defer wg.Done()
			cl.drive(w.streams[c], w.pace[c], w.round[c], start, end)
		}(c, cl)
	}
	wg.Wait()
	run.elapsed = time.Since(start).Seconds()
	run.selfCPU = selfCPUSeconds() - self0
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	run.serverCPU = cpu1 - cpu0
	run.walBytes = fileSize(e.wal()) - walBefore
	after, scrape2, err := scrape(probe)
	if err != nil {
		return nil, err
	}
	run.scrapeMS = (ms(scrape1) + ms(scrape2)) / 2
	run.counts = map[string]float64{}
	for k, v := range after {
		run.counts[k] = v - before[k]
	}
	if run.rssPeakMB, err = srv.rssPeakMB(); err != nil {
		return nil, err
	}
	for _, cl := range cls {
		run.merge(&cl.samples)
	}

	// What the run left behind: the store holds the data plus every
	// acknowledged write, and after mixed_rw so does a server restarted on
	// the same WAL after a SIGKILL.
	verify := &client{c: probe, d: e.d}
	triples := e.d.triples()
	if w.writer != nil {
		triples += w.writer.net
	}
	verify.do(healthzReq(triples), time.Now())
	if w.crash {
		srv.kill()
		t0 := time.Now()
		if srv, err = e.start(); err != nil {
			return nil, fmt.Errorf("restart on the WAL of %s: %w", name, err)
		}
		run.recovery = time.Since(t0).Seconds()
		probe.close()
		probe.addr = srv.addr
		verify.do(healthzReq(triples), time.Now())
	}
	if w.writer != nil {
		for _, b := range w.writer.batches {
			verify.do(askReq(b.pattern(), b.live), time.Now())
		}
	}
	run.extraOK = warmed + verify.ok
	run.failed += verify.failed
	if run.firstErr == nil {
		run.firstErr = verify.firstErr
	}
	return run, nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0 // no WAL yet
	}
	return fi.Size()
}

// writeDataset writes the N-Triples file the server loads.
func writeDataset(d *dataset, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.writeNT(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}
