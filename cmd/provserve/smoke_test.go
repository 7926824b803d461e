package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"provpriv/internal/obs"
)

// freePort reserves an ephemeral port and releases it for the server
// under test (a small race with other processes, covered by the
// readiness poll failing the test loudly rather than hanging).
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// TestProvserveSmoke boots the real binary against a fresh data
// directory and walks the operational surface end to end: readiness,
// a search, a live /metrics scrape validated with the strict exposition
// parser, and a clean SIGTERM drain. This is the CI e2e step — it
// exercises flag parsing, storage binding, the middleware chain and the
// shutdown sequence, none of which in-process handler tests touch.
func TestProvserveSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping binary smoke test")
	}
	bin := filepath.Join(t.TempDir(), "provserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	port := freePort(t)
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	dataDir := t.TempDir()
	cmd := exec.Command(bin,
		"-data", dataDir,
		"-addr", addr,
		"-log-format", "json",
		"-trace-sample", "1",
	)
	var logs strings.Builder
	cmd.Stderr = &logs
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	client := &http.Client{Timeout: 2 * time.Second}
	base := "http://" + addr
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v\nserver logs:\n%s", path, err, logs.String())
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, body
	}

	// Poll liveness until the listener is up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became healthy\nserver logs:\n%s", logs.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Readiness: the fresh data directory bound a storage backend at
	// startup, so a non-draining server is ready.
	if code, body := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d: %s\nserver logs:\n%s", code, body, logs.String())
	}

	// One search through the full middleware chain (empty repository:
	// zero hits is fine, the route must answer 200 with a request id).
	resp, err := client.Get(base + "/api/v1/search?user=public&q=database")
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search = %d", resp.StatusCode)
	}
	if rid := resp.Header.Get("X-Request-Id"); len(rid) != 32 {
		t.Fatalf("search X-Request-Id = %q", rid)
	}

	// Live /metrics must parse under the strict exposition validator.
	code, metrics := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	if err := obs.ValidateExposition(metrics); err != nil {
		t.Fatalf("live exposition invalid: %v\n---\n%s", err, metrics)
	}
	if !strings.Contains(string(metrics), "provpriv_http_requests_total") {
		t.Fatalf("no request counters in live metrics")
	}

	// Clean SIGTERM drain: exit 0 and the staged shutdown log trail.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("exit: %v\nserver logs:\n%s", err, logs.String())
		}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("server did not exit after SIGTERM\nserver logs:\n%s", logs.String())
	}
	out := logs.String()
	for _, want := range []string{"shutdown started", "shutdown: http drained", "shutdown complete"} {
		if !strings.Contains(out, want) {
			t.Fatalf("shutdown log missing %q:\n%s", want, out)
		}
	}
	// The startup config record is the first structured line.
	if !strings.Contains(out, `"msg":"serving"`) {
		t.Fatalf("no structured serving record:\n%s", out)
	}
	// It carries the cold start: the load's wall time and what it loaded
	// (nothing, from a fresh directory).
	for _, want := range []string{`"load_ms":`, `"shards":0,`, `"executions":0,`} {
		if !strings.Contains(out, want) {
			t.Fatalf("serving record missing %s:\n%s", want, out)
		}
	}
	// The fresh directory was opened the way a saved one is — loaded,
	// bound — so the shutdown save committed its first generation there.
	if _, err := os.Stat(filepath.Join(dataDir, "manifest.json")); err != nil {
		t.Fatalf("no manifest in the -data directory after the final save: %v\n%s", err, out)
	}
	_ = os.Remove(bin)
}

// TestProvserveRefusedStartups: configurations the binary must refuse
// before it serves or writes anything. A -data directory left by the
// deleted KV backend (store.kv, no manifest.json) would otherwise read
// as an empty flat store and be saved over.
func TestProvserveRefusedStartups(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping binary smoke test")
	}
	bin := filepath.Join(t.TempDir(), "provserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	kvDir := t.TempDir()
	const kvBytes = "\x00\x00\x00\x10kv frames, not ours to parse"
	if err := os.WriteFile(filepath.Join(kvDir, "store.kv"), []byte(kvBytes), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		args []string
		want string // in the fatal message
	}{
		"kv-data-dir": {[]string{"-data", kvDir}, "ab65b3c"},
		"backend-kv":  {[]string{"-data", t.TempDir(), "-backend", "kv"}, "-backend"},
	} {
		t.Run(name, func(t *testing.T) {
			args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", freePort(t))}, tc.args...)
			// A start-up that is not refused serves until it is killed.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
			if _, exited := err.(*exec.ExitError); !exited {
				t.Fatalf("provserve %v: err = %v, want a non-zero exit\n%s", tc.args, err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("provserve %v: fatal message does not mention %q:\n%s", tc.args, tc.want, out)
			}
			for _, dir := range tc.args[1:] {
				if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err == nil {
					t.Fatalf("provserve %v: refused, yet wrote a manifest in %s", tc.args, dir)
				}
			}
		})
	}
	entries, err := os.ReadDir(kvDir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("KV directory now holds %v (err=%v), want store.kv alone", entries, err)
	}
	if got, err := os.ReadFile(filepath.Join(kvDir, "store.kv")); err != nil || string(got) != kvBytes {
		t.Fatalf("store.kv changed: %q (err=%v)", got, err)
	}
}
