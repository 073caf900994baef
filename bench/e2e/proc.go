package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer builds ./cmd/lodvizd of the repository at root into dir.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "lodvizd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lodvizd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building lodvizd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is a running lodvizd.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  string // the file its standard error goes to
	// exited is closed once the process has ended and been waited for.
	exited chan struct{}
}

// startServer spawns lodvizd on a free loopback port with the flags of the
// issue (data, WAL, fsync on every acknowledged write; every other flag at
// its default) and waits for /healthz to answer. Cancelling ctx kills the
// server; procs is done when it has ended.
func startServer(ctx context.Context, procs *sync.WaitGroup, bin, data, wal, logPath string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	// The child holds its own descriptor once started.
	defer func() { _ = logFile.Close() }()
	cmd := exec.CommandContext(ctx, bin, "-addr", addr, "-data", data, "-wal", wal, "-wal-sync", "always")
	cmd.Stderr = logFile
	// The server must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	procs.Add(1)
	if err := cmd.Start(); err != nil {
		procs.Done()
		return nil, err
	}
	exited := make(chan struct{})
	s := &daemon{cmd: cmd, addr: addr, log: logPath, exited: exited}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server says nothing
		close(exited)
		procs.Done()
	}()
	c := &conn{addr: addr}
	defer c.close()
	probe := healthzReq(-1)
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return nil, fmt.Errorf("lodvizd exited during start-up:\n%s", s.logTail())
		default:
		}
		if resp, err := c.do(probe.wire, time.Now()); err == nil && resp.status == 200 {
			return s, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.kill()
	return nil, fmt.Errorf("lodvizd did not answer /healthz within a minute:\n%s", s.logTail())
}

// kill stops the server with SIGKILL and waits until it has ended.
func (s *daemon) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.exited
}

func (s *daemon) logTail() string {
	b, err := os.ReadFile(s.log)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// cpuSeconds is the user and system CPU time the server has used, from
// /proc/<pid>/stat. Linux reports it in ticks of 1/100 s.
func (s *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesised command name: utime and stime are
	// the 14th and 15th of the line, so the 12th and 13th after it.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat line %q", b)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat line %q", b)
	}
	return (utime + stime) / 100, nil
}

// rssPeakMB is the server's peak resident set size (VmHWM).
func (s *daemon) rssPeakMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer func() { _ = f.Close() }()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status: %v", sc.Err())
}

// selfCPUSeconds is the CPU time this process has used.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// scrape fetches /metrics and sums the samples of each family, whatever
// their labels; histograms keep their _sum and _count. It also returns how
// long the scrape took.
func scrape(c *conn) (map[string]float64, time.Duration, error) {
	resp, err := c.do(get(kHealthz, "/metrics", nil).finish().wire, time.Now())
	if err != nil {
		return nil, 0, err
	}
	if resp.status != 200 {
		return nil, 0, fmt.Errorf("/metrics answered %d", resp.status)
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(resp.body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		m[name] += v
	}
	return m, resp.total, nil
}
