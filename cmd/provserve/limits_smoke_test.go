package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"provpriv/internal/auth"
)

// serverLog collects the server's stderr. The test reads it while the
// process is still writing, so both sides take the lock.
type serverLog struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *serverLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *serverLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// provserveProc is one booted provserve binary under test.
type provserveProc struct {
	cmd  *exec.Cmd
	logs *serverLog
	base string
}

// startProvserve boots the prebuilt binary with the given extra flags
// and waits for liveness.
func startProvserve(t *testing.T, bin, addr string, extra ...string) *provserveProc {
	t.Helper()
	args := append([]string{"-addr", addr, "-log-format", "json"}, extra...)
	cmd := exec.Command(bin, args...)
	logs := &serverLog{}
	cmd.Stderr = logs
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	p := &provserveProc{cmd: cmd, logs: logs, base: "http://" + addr}
	t.Cleanup(func() {
		if p.cmd.Process != nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became healthy\nserver logs:\n%s", logs.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// stop SIGTERMs the process and waits for a clean exit.
func (p *provserveProc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("exit: %v\nserver logs:\n%s", err, p.logs.String())
		}
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		t.Fatalf("server did not exit after SIGTERM\nserver logs:\n%s", p.logs.String())
	}
}

// bearer performs one request with a bearer secret and returns the
// status code and the Retry-After header.
func bearer(t *testing.T, method, url, secret string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+secret)
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// TestProvserveLimitsAndReload drives the admission controller and the
// token lifecycle against the live binary: a reader bursts into 429s
// with Retry-After and recovers after backing off; rewriting the token
// file and sending SIGHUP rotates a credential without a restart
// (polling is disabled, so SIGHUP alone must do it); a mutation leaves
// a durable audit record that is still queryable after a full restart.
func TestProvserveLimitsAndReload(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping binary smoke test")
	}
	bin := filepath.Join(t.TempDir(), "provserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	tokens := filepath.Join(t.TempDir(), "tokens")
	writeTokens := func(oldSecret bool) {
		rotating := "sec-new"
		if oldSecret {
			rotating = "sec-old"
		}
		lines := []string{
			"t-admin:admin:owner:" + auth.HashSecret("sec-admin"),
			"t-reader:reader:public:" + auth.HashSecret("sec-reader"),
			"t-rotate:reader:public:" + auth.HashSecret(rotating),
		}
		if err := os.WriteFile(tokens, []byte(strings.Join(lines, "\n")+"\n"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	writeTokens(true)

	dataDir, auditDir := t.TempDir(), t.TempDir()
	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	flags := []string{
		"-data", dataDir,
		"-token-file", tokens,
		"-token-reload", "0", // SIGHUP is the only reload trigger
		"-rate-reader", "5",
		"-rate-burst", "3",
		"-audit-log", auditDir,
	}
	p := startProvserve(t, bin, addr, flags...)
	search := p.base + "/api/v1/search?q=database"

	// Burst: a reader gets its burst of 3, then 429s with a positive
	// Retry-After.
	var ok200, ok429 int
	for i := 0; i < 10; i++ {
		code, ra := bearer(t, "GET", search, "sec-reader", nil)
		switch code {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			ok429++
			if ra == "" {
				t.Fatalf("429 without Retry-After on burst request %d", i)
			}
		default:
			t.Fatalf("burst request %d = %d", i, code)
		}
	}
	if ok200 == 0 || ok429 == 0 {
		t.Fatalf("burst saw %d 200s and %d 429s; want both", ok200, ok429)
	}
	// Admin traffic rides a different (unlimited) budget the whole time.
	if code, _ := bearer(t, "GET", search, "sec-admin", nil); code != http.StatusOK {
		t.Fatalf("admin during reader burst = %d", code)
	}
	// Recovery: at 5 tokens/s a one-second backoff refills the bucket.
	time.Sleep(1200 * time.Millisecond)
	if code, _ := bearer(t, "GET", search, "sec-reader", nil); code != http.StatusOK {
		t.Fatal("reader still limited after backing off")
	}

	// Rotate t-rotate's secret on disk and SIGHUP. The new secret must
	// start working and the old one failing, without a restart; the
	// unchanged admin token must keep working.
	writeTokens(false)
	if err := p.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatalf("SIGHUP: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		// 429 also proves the credential authenticated (limits run after
		// auth), so only 401 means "rotation not live yet".
		code, _ := bearer(t, "GET", search, "sec-new", nil)
		if code == http.StatusOK || code == http.StatusTooManyRequests {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rotated secret still rejected (%d) after SIGHUP\nserver logs:\n%s", code, p.logs.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	if code, _ := bearer(t, "GET", search, "sec-old", nil); code != http.StatusUnauthorized {
		t.Fatal("revoked secret still authenticates after SIGHUP reload")
	}
	if code, _ := bearer(t, "GET", search, "sec-admin", nil); code != http.StatusOK {
		t.Fatal("unchanged token broken by SIGHUP reload")
	}
	if !strings.Contains(p.logs.String(), "token file reloaded") {
		t.Fatalf("no reload record in server logs:\n%s", p.logs.String())
	}

	// A mutation through the live binary leaves one audit record.
	spec := smokeSpec(t, "smoke")
	specJSON, _ := json.Marshal(spec)
	body, _ := json.Marshal(map[string]json.RawMessage{"spec": specJSON})
	if code, _ := bearer(t, "POST", p.base+"/api/v1/specs", "sec-admin", body); code != http.StatusCreated {
		t.Fatalf("add spec = %d", code)
	}

	auditOf := func(base string) []map[string]any {
		req, _ := http.NewRequest(http.MethodGet, base+"/api/v1/audit?action=spec.add", nil)
		req.Header.Set("Authorization", "Bearer sec-admin")
		resp, err := (&http.Client{Timeout: 5 * time.Second}).Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Enabled bool             `json:"enabled"`
			Records []map[string]any `json:"records"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("audit response: %v", err)
		}
		if resp.StatusCode != http.StatusOK || !out.Enabled {
			t.Fatalf("audit = %d enabled=%v", resp.StatusCode, out.Enabled)
		}
		return out.Records
	}
	recs := auditOf(p.base)
	if len(recs) != 1 || recs[0]["target"] != "smoke" || recs[0]["outcome"] != "ok" {
		t.Fatalf("audit after mutation = %+v", recs)
	}

	// Restart: the audit record survives — it was durably committed, not
	// process state.
	p.stop(t)
	addr2 := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	p2 := startProvserve(t, bin, addr2, flags...)
	recs = auditOf(p2.base)
	if len(recs) != 1 || recs[0]["target"] != "smoke" {
		t.Fatalf("audit after restart = %+v", recs)
	}
	p2.stop(t)
	_ = os.Remove(bin)
}
