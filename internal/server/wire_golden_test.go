package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// getBody performs a GET as user and returns the status and raw body.
func getBody(t *testing.T, ts *httptest.Server, user, path string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Prov-User", user)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// encodeLikeBefore is how the three read routes wrote their answers before
// they had typed envelopes and a compiled provenance encoder: a
// map[string]any through json.Encoder.
func encodeLikeBefore(t *testing.T, m map[string]any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadRoutesEncodeAsTheirMapsDid holds /search, /query and /provenance
// byte-identical to the map[string]any envelopes they replaced, for the
// same answer: the typed envelopes declare their fields in the maps' key
// order, and the provenance answer, written from pre-encoded runs, equals
// encoding/json of the sub-execution the engine materializes.
func TestReadRoutesEncodeAsTheirMapsDid(t *testing.T) {
	ts, r, e := newTestServer(t)
	const spec = "disease-susceptibility"
	users := []string{"alice", "bob", "carol"}
	served := 0
	for _, user := range users {
		for _, p := range []string{"q=omim", "q=query+database&limit=1&offset=1", "q=nonexistent", "q=omim&buckets=2&offset=5"} {
			code, body := getBody(t, ts, user, "/api/v1/search?"+p)
			var page searchPage
			if err := json.Unmarshal(body, &page); code != http.StatusOK || err != nil {
				t.Fatalf("%s search %s: %d %v", user, p, code, err)
			}
			want := encodeLikeBefore(t, map[string]any{
				"query": page.Query, "hits": page.Hits, "total": page.Total, "offset": page.Offset,
			})
			if !bytes.Equal(body, want) {
				t.Fatalf("%s search %s:\nserved %s\nmap    %s", user, p, body, want)
			}
			served++
		}
		for _, p := range []string{
			"exec=E1&q=" + url.QueryEscape(`MATCH a = "expand snp", b = "query omim" WHERE a ~> b`),
			"exec=E1&q=" + url.QueryEscape(`MATCH a = "reformat" RETURN downstream(a)`),
			"exec=E1&zoom=1&q=" + url.QueryEscape(`MATCH a = "query omim" RETURN nodes`),
			"exec=E1&offset=1&q=" + url.QueryEscape(`MATCH a = "reformat"`),
			"q=" + url.QueryEscape(`MATCH a = "reformat" RETURN provenance(a)`),
			"q=" + url.QueryEscape(`MATCH a = "nothing matches"`),
		} {
			code, body := getBody(t, ts, user, "/api/v1/query?spec="+spec+"&"+p)
			var page queryPage
			if err := json.Unmarshal(body, &page); code != http.StatusOK || err != nil {
				t.Fatalf("%s query %s: %d %v", user, p, code, err)
			}
			want := encodeLikeBefore(t, map[string]any{
				"spec": page.Spec, "answers": page.Answers, "total": page.Total, "offset": page.Offset,
			})
			if !bytes.Equal(body, want) {
				t.Fatalf("%s query %s:\nserved %s\nmap    %s", user, p, body, want)
			}
			served++
		}
		for _, item := range e.ItemIDs() {
			q := url.Values{"spec": {spec}, "exec": {"E1"}, "item": {item}}
			code, body := getBody(t, ts, user, "/api/v1/provenance?"+q.Encode())
			prov, err := r.Provenance(user, spec, "E1", item)
			if err != nil {
				if code == http.StatusOK {
					t.Fatalf("%s provenance %s: served 200, engine says %v", user, item, err)
				}
				continue
			}
			want := encodeLikeBefore(t, map[string]any{"spec": spec, "exec": "E1", "item": item, "provenance": prov})
			if code != http.StatusOK || !bytes.Equal(body, want) {
				t.Fatalf("%s provenance %s: %d\nserved %s\nmap    %s", user, item, code, body, want)
			}
			served++
		}
	}
	if served < 3*(4+6+1) {
		t.Fatalf("only %d answers compared", served)
	}
}
