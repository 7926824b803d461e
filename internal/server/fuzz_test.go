package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"provpriv/internal/auth"
	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/repo"
	"provpriv/internal/workflow"
)

// FuzzMutationBody throws arbitrary bytes at every mutation-endpoint
// JSON decoder through the full handler stack (auth → decode → engine).
// Invariants: the server never panics, never answers 5xx (a bad body is
// the client's fault), always answers JSON, and a rejected request
// leaves no partial state behind (a spec rejected with 4xx must not be
// registered). Run with `go test -fuzz=FuzzMutationBody ./internal/server`.
func FuzzMutationBody(f *testing.F) {
	// Seeds: valid shapes, near-valid shapes, and garbage.
	f.Add("/api/v1/specs", "POST", `{"spec":{"id":"s1"}}`)
	f.Add("/api/v1/specs", "POST", `{"spec":null,"policy":{"spec":"x"}}`)
	f.Add("/api/v1/specs", "POST", `{"spec":{}} trailing`)
	f.Add("/api/v1/executions", "POST", `{"id":"E","spec":"disease-susceptibility","nodes":[],"edges":[],"items":{}}`)
	f.Add("/api/v1/executions", "POST", `[]`)
	f.Add("/api/v1/policy", "PUT", `{"spec":"disease-susceptibility","policy":{"data_levels":{"snps":3}}}`)
	f.Add("/api/v1/policy", "PUT", "{\"spec\":\"\x00\",\"policy\":{\"view_grants\":{\"1\":[\"W2\"]}}}")
	f.Add("/api/v1/generalization", "PUT", `{"spec":"disease-susceptibility","hierarchies":{"snps":{"levels":[{"rs1":"chr1"}]}}}`)
	f.Add("/api/v1/generalization", "PUT", `{"spec":"d","hierarchies":{"a":{"attr":"b"}}}`)
	f.Add("/api/v1/save", "POST", ``)
	f.Add("/api/v1/specs", "POST", "\x00\xff\xfe")
	f.Add("/api/v1/executions", "POST", `{"id":"E","spec":"disease-susceptibility","nodes":[{"id":"n","kind":9999}]}`)
	f.Add("/api/v1/executions", "POST", `{"id":"E","spec":"disease-susceptibility","nodes":[null],"edges":[],"items":{}}`)
	f.Add("/api/v1/executions", "POST", `{"id":"E","spec":"disease-susceptibility","nodes":[],"edges":[],"items":{"d0":null}}`)

	newRepo := func() *repo.Repository {
		r := repo.New()
		s := workflow.DiseaseSusceptibility()
		if err := r.AddSpec(s, nil); err != nil {
			panic(err)
		}
		e, err := exec.NewRunner(s, nil).Run("E1", map[string]exec.Value{
			"snps": "rs1", "ethnicity": "e", "lifestyle": "l",
			"family_history": "f", "symptoms": "s",
		})
		if err != nil {
			panic(err)
		}
		if err := r.AddExecution(e); err != nil {
			panic(err)
		}
		r.AddUser(privacy.User{Name: "w", Level: privacy.Owner, Group: "g"})
		return r
	}
	a, err := auth.New([]*auth.Token{auth.NewToken("t", "w", auth.RoleAdmin, "fuzz-secret")})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, path, method, body string) {
		// Constrain the fuzzed routing to the mutation surface; the body
		// stays fully adversarial. SaveDir is left empty so the save
		// endpoint can never touch the filesystem.
		var ok bool
		for _, p := range []string{"/api/v1/specs", "/api/v1/executions", "/api/v1/policy", "/api/v1/generalization", "/api/v1/save"} {
			if path == p {
				ok = true
			}
		}
		if !ok || (method != "POST" && method != "PUT" && method != "DELETE") {
			t.Skip()
		}
		srv := New(newRepo())
		srv.Auth = auth.NewStore(a)
		req := httptest.NewRequest(method, path, bytes.NewReader([]byte(body)))
		req.Header.Set("Authorization", "Bearer fuzz-secret")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req) // must not panic
		res := rec.Result()
		defer res.Body.Close()
		if res.StatusCode >= 500 {
			t.Fatalf("%s %s with %q -> %d (server fault on client input)", method, path, body, res.StatusCode)
		}
		if res.StatusCode != http.StatusNotFound || rec.Body.Len() > 0 {
			// Every answered request (mux 404s for bad method/path pairs
			// have empty bodies) must be well-formed JSON.
			if ct := res.Header.Get("Content-Type"); ct != "" && strings.HasPrefix(ct, "application/json") {
				var v any
				if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
					t.Fatalf("%s %s: non-JSON response %q", method, path, rec.Body.Bytes())
				}
			}
		}
		// No partial state: a rejected add-spec registers nothing beyond
		// the fixture spec.
		if path == "/api/v1/specs" && method == "POST" && res.StatusCode >= 400 {
			if n := len(srv.repo.SpecIDs()); n != 1 {
				t.Fatalf("rejected spec mutated the repository: %d specs", n)
			}
		}
	})
}
