package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"provpriv/internal/auth"
)

// TestTokenLifecycleOverTheWire drives the token management surface
// end-to-end: mint (with a server-generated secret that works
// immediately), list, duplicate conflict, revoke (the secret stops
// working on the next request), and unknown-name 404.
func TestTokenLifecycleOverTheWire(t *testing.T) {
	ts, _, _, _ := newAuthedServer(t)

	// Reader and writer roles may not touch the token surface.
	for _, secret := range []string{readerSecret, writerSecret} {
		if code := do(t, ts, "POST", "/api/v1/tokens", secret,
			[]byte(`{"name":"t-x","user":"carol","role":"reader"}`), nil); code != http.StatusForbidden {
			t.Fatalf("non-admin mint = %d, want 403", code)
		}
	}

	// Mint with no secret: the server generates one and returns it once.
	var minted struct {
		Name   string `json:"name"`
		User   string `json:"user"`
		Role   string `json:"role"`
		Secret string `json:"secret"`
	}
	body := []byte(`{"name":"t-ci","user":"carol","role":"writer"}`)
	if code := do(t, ts, "POST", "/api/v1/tokens", adminSecret, body, &minted); code != http.StatusCreated {
		t.Fatalf("mint = %d, want 201", code)
	}
	if minted.Secret == "" || len(minted.Secret) != 64 {
		t.Fatalf("minted secret = %q, want a 64-hex-char generated secret", minted.Secret)
	}
	if minted.Name != "t-ci" || minted.Role != "writer" {
		t.Fatalf("minted = %+v", minted)
	}

	// The fresh secret works immediately — no restart, no reload.
	spec := zebrafishSpec(t, "zfish-tok")
	specJSON, _ := json.Marshal(spec)
	reqBody, _ := json.Marshal(map[string]json.RawMessage{"spec": specJSON})
	if code := do(t, ts, "POST", "/api/v1/specs", minted.Secret, reqBody, nil); code != http.StatusCreated {
		t.Fatalf("mutation with minted token = %d, want 201", code)
	}

	// Duplicate name conflicts.
	if code := do(t, ts, "POST", "/api/v1/tokens", adminSecret, body, nil); code != http.StatusConflict {
		t.Fatalf("duplicate mint = %d, want 409", code)
	}

	// A client-supplied secret is never echoed back.
	var echoed map[string]any
	if code := do(t, ts, "POST", "/api/v1/tokens", adminSecret,
		[]byte(`{"name":"t-byo","user":"carol","role":"reader","secret":"client-chosen"}`), &echoed); code != http.StatusCreated {
		t.Fatalf("mint with client secret = %d, want 201", code)
	}
	if _, leaked := echoed["secret"]; leaked {
		t.Fatal("client-supplied secret reflected in the response")
	}

	// List shows the minted tokens, no secret material.
	var listed struct {
		Tokens []auth.TokenStat `json:"tokens"`
	}
	if code := do(t, ts, "GET", "/api/v1/tokens", adminSecret, nil, &listed); code != http.StatusOK {
		t.Fatalf("list = %d", code)
	}
	names := map[string]bool{}
	for _, tok := range listed.Tokens {
		names[tok.Name] = true
	}
	for _, want := range []string{"t-reader", "t-writer", "t-admin", "t-ci", "t-byo"} {
		if !names[want] {
			t.Fatalf("token list missing %q: %+v", want, listed.Tokens)
		}
	}

	// Revoke: the very next request with the revoked secret is a 401;
	// other tokens are untouched.
	if code := do(t, ts, "DELETE", "/api/v1/tokens/t-ci", adminSecret, nil, nil); code != http.StatusOK {
		t.Fatalf("revoke = %d", code)
	}
	if code := do(t, ts, "POST", "/api/v1/specs", minted.Secret, reqBody, nil); code != http.StatusUnauthorized {
		t.Fatalf("mutation with revoked token = %d, want 401", code)
	}
	if code := do(t, ts, "GET", "/api/v1/specs", readerSecret, nil, nil); code != http.StatusOK {
		t.Fatalf("unrelated token after revocation = %d, want 200", code)
	}
	if code := do(t, ts, "DELETE", "/api/v1/tokens/t-ci", adminSecret, nil, nil); code != http.StatusNotFound {
		t.Fatalf("revoke of unknown token = %d, want 404", code)
	}
}

// TestTokenRotationChurn (-race) rotates tokens through the management
// endpoints while authenticated traffic runs: requests using unchanged
// tokens must never spuriously fail, and each revoked token must fail
// from the moment its DELETE returns.
func TestTokenRotationChurn(t *testing.T) {
	ts, _, _, _ := newAuthedServer(t)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if code := do(t, ts, "GET", "/api/v1/search?q=omim", readerSecret, nil, nil); code != http.StatusOK {
					t.Errorf("steady reader got %d during rotation churn", code)
					return
				}
				if code := do(t, ts, "GET", "/api/v1/specs", writerSecret, nil, nil); code != http.StatusOK {
					t.Errorf("steady writer got %d during rotation churn", code)
					return
				}
			}
		}()
	}

	// Rotator: mint a token, prove it works, revoke it, prove the very
	// next use fails — 25 generations, concurrently with the readers.
	for i := 0; i < 25; i++ {
		name := fmt.Sprintf("t-churn-%d", i)
		var minted struct {
			Secret string `json:"secret"`
		}
		body := []byte(fmt.Sprintf(`{"name":%q,"user":"carol","role":"reader"}`, name))
		if code := do(t, ts, "POST", "/api/v1/tokens", adminSecret, body, &minted); code != http.StatusCreated {
			t.Fatalf("mint %s = %d", name, code)
		}
		if code := do(t, ts, "GET", "/api/v1/specs", minted.Secret, nil, nil); code != http.StatusOK {
			t.Fatalf("fresh token %s = %d, want 200", name, code)
		}
		if code := do(t, ts, "DELETE", "/api/v1/tokens/"+name, adminSecret, nil, nil); code != http.StatusOK {
			t.Fatalf("revoke %s = %d", name, code)
		}
		if code := do(t, ts, "GET", "/api/v1/specs", minted.Secret, nil, nil); code != http.StatusUnauthorized {
			t.Fatalf("revoked token %s = %d, want 401", name, code)
		}
	}
	close(stop)
	readers.Wait()
}

// TestMintRefusesWhatTheTokenFileCannotCarry: a name or user that would not
// come back from the token file unchanged — a ':' that splits the line, a
// newline that writes a line of its own, a leading '#' that makes it a
// comment, space that Parse trims — is refused with 400, and the file on
// disk still loads to exactly the live set.
func TestMintRefusesWhatTheTokenFileCannotCarry(t *testing.T) {
	_, r, _ := newTestServer(t)
	path := filepath.Join(t.TempDir(), "tokens")
	line := "t-admin:admin:alice:" + auth.HashSecret(adminSecret) + "\n"
	if err := os.WriteFile(path, []byte(line), 0o600); err != nil {
		t.Fatal(err)
	}
	store, err := auth.NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(r)
	srv.Auth = store
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	for _, bad := range []struct{ name, user string }{
		{"a:b", "carol"},
		{"t-x", "car:ol"},
		{"t-x\nevil:admin:alice:" + auth.HashSecret("x"), "carol"},
		{"t-x", "carol\n"},
		{"#t-x", "carol"},
		{" t-x", "carol"},
		{"t-x", "carol "},
		{"", "carol"},
		{"t-x", ""},
		{strings.Repeat("n", 300), "carol"},
	} {
		body, _ := json.Marshal(map[string]string{"name": bad.name, "user": bad.user, "role": "reader"})
		if code := do(t, ts, "POST", "/api/v1/tokens", adminSecret, body, nil); code != http.StatusBadRequest {
			t.Errorf("mint name %q user %q = %d, want 400", bad.name, bad.user, code)
		}
	}
	body := []byte(`{"name":"t-ok","user":"carol","role":"reader"}`)
	if code := do(t, ts, "POST", "/api/v1/tokens", adminSecret, body, nil); code != http.StatusCreated {
		t.Fatalf("mint of a valid token = %d, want 201", code)
	}
	reloaded, err := auth.LoadFile(path)
	if err != nil {
		t.Fatalf("token file no longer loads: %v", err)
	}
	if got, want := reloaded.Stats(), store.Stats(); len(got) != len(want) {
		t.Fatalf("token file holds %v, live set %v", got, want)
	} else {
		for i := range got {
			if got[i].Name != want[i].Name || got[i].User != want[i].User || got[i].Role != want[i].Role {
				t.Fatalf("token file holds %v, live set %v", got, want)
			}
		}
	}
}
