package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"provpriv/internal/auth"
)

// token is one bearer credential of the generated token file.
type token struct {
	name, role, user, secret string
}

// tokensFor returns the ten production-shaped credentials: two reader
// tokens per level, one writer and one admin. The server's
// constant-time scan is O(tokens), so the count is part of the set-up.
func tokensFor(seed int64) []token {
	var ts []token
	for _, l := range levels {
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("r%d-%s", i, l)
			ts = append(ts, token{name: name, role: "reader", user: l.String()})
		}
	}
	ts = append(ts, token{name: "w0", role: "writer", user: "analyst"}, token{name: "a0", role: "admin", user: "owner"})
	for i := range ts {
		ts[i].secret = fmt.Sprintf("provload-%d-%s", seed, ts[i].name)
	}
	return ts
}

func writeTokenFile(path string, ts []token) error {
	var b strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&b, "%s:%s:%s:%s\n", t.name, t.role, t.user, auth.HashSecret(t.secret))
	}
	return os.WriteFile(path, []byte(b.String()), 0o600)
}

// serverFlags is the production shape every workload runs against: the
// ROADMAP's path admission → auth → index → rank → mask → encode, with
// the limiter built but sized never to reject, and the audit log on.
func serverFlags(data, tokenFile, auditDir, addr string) []string {
	return []string{
		"-data", data, "-backend", "flat", "-token-file", tokenFile, "-audit-log", auditDir,
		"-rate-reader", "100000", "-rate-writer", "100000", "-rate-admin", "100000", "-rate-burst", "100000",
		"-max-inflight", "256", "-max-inflight-principal", "64", "-task-workers", "2",
		"-trace-sample", "0", "-log-level", "error", "-addr", addr,
	}
}

// buildServer compiles cmd/provserve of the module the current
// directory is in, from source, into dir.
func buildServer(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "provserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "provpriv/cmd/provserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build provpriv/cmd/provserve: %v\n%s", err, out)
	}
	return bin, nil
}

// provserve is one running provserve subprocess.
type provserve struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr string // file the process's stderr goes to
	exited chan struct{}
	flags  []string
	bootS  float64 // process start → first /readyz 200
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer boots the binary on a free loopback port and polls
// /readyz. If the process exits first the tail of its stderr is the
// error.
func startServer(ctx context.Context, hc *http.Client, bin, work, data, tokenFile string) (*provserve, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &provserve{
		base:   "http://" + addr,
		stderr: filepath.Join(work, "provserve.stderr"),
		exited: make(chan struct{}),
		flags:  serverFlags(data, tokenFile, filepath.Join(work, "audit"), addr),
	}
	errFile, err := os.Create(s.stderr)
	if err != nil {
		return nil, err
	}
	defer errFile.Close()
	s.cmd = exec.Command(bin, s.flags...)
	s.cmd.Stderr = errFile
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = s.cmd.Wait() // the exit status is read from ProcessState by stop
		close(s.exited)
	}()
	for {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("provserve exited before ready: %s", tail(s.stderr, 20))
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		default:
		}
		if time.Since(start) > 60*time.Second {
			s.stop()
			return nil, fmt.Errorf("provserve not ready after 60s: %s", tail(s.stderr, 20))
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/readyz", nil)
		if resp, err := hc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.bootS = time.Since(start).Seconds()
				return s, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM and waits for the staged drain; a server that
// ignores it for 60s is killed. It reports a non-zero exit.
func (s *provserve) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-s.exited:
	case <-time.After(60 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("provserve ignored SIGTERM for 60s and was killed: %s", tail(s.stderr, 20))
	}
	if !s.cmd.ProcessState.Success() {
		return fmt.Errorf("provserve exit: %v: %s", s.cmd.ProcessState, tail(s.stderr, 20))
	}
	return nil
}

func tail(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// scrape reads the server's /metrics into series name (with labels) →
// value.
func (s *provserve) scrape(ctx context.Context, hc *http.Client) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// sumSeries adds every series of a family whose label set contains all
// of the given fragments (e.g. `route="GET /api/v1/search"`).
func sumSeries(m map[string]float64, family string, labels ...string) float64 {
	var total float64
	for k, v := range m {
		name, rest, _ := strings.Cut(k, "{")
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(rest, l)
		}
		if ok {
			total += v
		}
	}
	return total
}

// cpuSeconds returns the CPU time the server process has used: the sum
// over its threads of the run time in /proc/<pid>/task/<tid>/schedstat,
// which the scheduler keeps in nanoseconds (utime+stime of
// /proc/<pid>/stat advance in 10 ms ticks, too coarse for a segment).
// Go does not end threads it has started, so the sum never steps back.
func (s *provserve) cpuSeconds() (float64, error) {
	files, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.cmd.Process.Pid))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d: %v", s.cmd.Process.Pid, err)
	}
	var ns float64
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue // the thread ended between the glob and the read
		}
		fields := strings.Fields(string(data))
		if len(fields) == 0 {
			return 0, fmt.Errorf("empty %s", f)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %v", f, err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// peakRSSMB returns VmHWM of the server process.
func (s *provserve) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
