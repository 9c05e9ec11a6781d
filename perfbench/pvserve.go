package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// server is one pvserve child process on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{} // closed once the process has been reaped
	werr   error         // Wait's error, readable after exited closes

	gcs      atomic.Int64 // GC cycles, counted from the child's gctrace lines
	logMu    sync.Mutex
	logTail  []string
	scanDone chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startServer execs pvserve on a fresh loopback port. The child runs with
// gctrace on so its GC cycles can be counted from stderr.
func startServer(bin string, conns int) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	// The child dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
		exited:   make(chan struct{}),
		scanDone: make(chan struct{}),
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go s.scan(stderr)
	go func() {
		<-s.scanDone // Wait closes the pipe; drain it first
		s.werr = cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

// scan consumes the child's stderr: gctrace lines are counted, the rest
// kept as a short tail for error reports.
func (s *server) scan(r io.Reader) {
	defer close(s.scanDone)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "gc ") {
			s.gcs.Add(1)
			continue
		}
		s.logMu.Lock()
		s.logTail = append(s.logTail, line)
		if len(s.logTail) > 20 {
			s.logTail = s.logTail[1:]
		}
		s.logMu.Unlock()
	}
}

// tail returns the child's last log lines.
func (s *server) tail() string {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return strings.Join(s.logTail, "\n")
}

// do sends one request and reads the whole response body.
func (s *server) do(method, path string, body []byte, header map[string]string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// doReady is do for the first request after exec: connection refusals
// are retried until the listener is up (or the child exits, or timeout).
func (s *server) doReady(method, path string, body []byte, timeout time.Duration) (int, []byte, error) {
	deadline := time.Now().Add(timeout)
	for {
		code, b, err := s.do(method, path, body, nil)
		if err == nil || !errors.Is(err, syscall.ECONNREFUSED) {
			return code, b, err
		}
		select {
		case <-s.exited:
			return 0, nil, fmt.Errorf("pvserve exited before listening: %v\n%s", s.werr, s.tail())
		default:
		}
		if time.Now().After(deadline) {
			return 0, nil, fmt.Errorf("pvserve not listening after %v\n%s", timeout, s.tail())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop asks the child to shut down (SIGTERM, the graceful path) and waits
// for it to exit, killing it if it has not after the timeout.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	select {
	case <-s.exited:
		return nil
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		return s.werr
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("pvserve ignored SIGTERM for 30s; killed")
	}
}

// cpuSeconds is the child's CPU time so far: the on-CPU nanoseconds of
// its threads from /proc/<pid>/task/*/schedstat (user and system time,
// stolen time excluded, at nanosecond resolution).
func (s *server) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited meanwhile
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// peakRSSMB is the child's VmHWM (peak resident set) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}
