package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"provpriv/internal/auth"
	provexec "provpriv/internal/exec"
	"provpriv/internal/workflow"
)

// smokeSpec is a one-step workflow the smoke tests register and run.
func smokeSpec(t *testing.T, id string) *workflow.Spec {
	t.Helper()
	spec, err := workflow.NewBuilder(id, "Smoke Spec", "R").
		Workflow("R", "Root").
		Source("I", "x").
		Atomic("A1", "Smoke Step", []string{"x"}, []string{"y"}).
		Sink("O", "y").
		Edge("I", "A1", "x").
		Edge("A1", "O", "y").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestProvserveAuditSurvivesKill: every mutation the live binary
// acknowledged before a SIGKILL — no drain, no Close, no manifest commit
// — is in the audit log of the process started over the same directory.
// Four clients post at once, so acknowledged records share flushes.
func TestProvserveAuditSurvivesKill(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping binary smoke test")
	}
	bin := filepath.Join(t.TempDir(), "provserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	tokens := filepath.Join(t.TempDir(), "tokens")
	if err := os.WriteFile(tokens, []byte("t-admin:admin:owner:"+auth.HashSecret("sec-admin")+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	flags := []string{"-data", t.TempDir(), "-token-file", tokens, "-audit-log", t.TempDir()}
	p := startProvserve(t, bin, fmt.Sprintf("127.0.0.1:%d", freePort(t)), flags...)

	spec := smokeSpec(t, "kill")
	specJSON, _ := json.Marshal(spec)
	body, _ := json.Marshal(map[string]json.RawMessage{"spec": specJSON})
	if code, _ := bearer(t, "POST", p.base+"/api/v1/specs", "sec-admin", body); code != http.StatusCreated {
		t.Fatalf("add spec = %d", code)
	}

	const clients, perClient = 4, 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				e, err := provexec.NewRunner(spec, nil).Run(fmt.Sprintf("E%d-%d", c, i), map[string]provexec.Value{"x": "v"})
				if err != nil {
					t.Error(err)
					return
				}
				data, _ := provexec.MarshalExecution(e)
				if code, _ := bearer(t, "POST", p.base+"/api/v1/executions", "sec-admin", data); code != http.StatusCreated {
					t.Errorf("add execution %s = %d", e.ID, code)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	const acknowledged = 1 + clients*perClient

	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	p.cmd.Wait()

	p2 := startProvserve(t, bin, fmt.Sprintf("127.0.0.1:%d", freePort(t)), flags...)
	req, _ := http.NewRequest(http.MethodGet, p2.base+"/api/v1/audit?action=exec.add&limit=1000", nil)
	req.Header.Set("Authorization", "Bearer sec-admin")
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Total   uint64 `json:"total"`
		Records []struct {
			Target  string `json:"target"`
			Outcome string `json:"outcome"`
		} `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("audit response: %v", err)
	}
	if out.Total < acknowledged {
		t.Fatalf("audit total after SIGKILL = %d, want ≥ %d acknowledged mutations\nserver logs:\n%s",
			out.Total, acknowledged, p2.logs.String())
	}
	seen := make(map[string]bool)
	for _, r := range out.Records {
		if r.Outcome == "ok" {
			seen[r.Target] = true
		}
	}
	for c := 0; c < clients; c++ {
		for i := 0; i < perClient; i++ {
			if id := fmt.Sprintf("E%d-%d", c, i); !seen[id] {
				t.Errorf("acknowledged execution %s has no audit record after SIGKILL", id)
			}
		}
	}
	p2.stop(t)
}
