package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestOversizedBodies413 drives every mutation endpoint that decodes a
// request body with a payload past its size cap and requires the same
// contract from all of them: 413 Request Entity Too Large with the
// uniform JSON error envelope — never a generic 400, so clients can
// tell "split your payload" from "fix your JSON". The caps are
// variables lowered for the test; restored afterwards.
func TestOversizedBodies413(t *testing.T) {
	ts, _, _ := newTaskServer(t, 1, 4)

	oldMax, oldBulk := maxBodyBytes, bulkMaxBodyBytes
	maxBodyBytes, bulkMaxBodyBytes = 64, 128
	t.Cleanup(func() { maxBodyBytes, bulkMaxBodyBytes = oldMax, oldBulk })

	// Oversized but syntactically plausible payloads, so the failure can
	// only come from the size cap.
	pad := strings.Repeat("x", 256)
	single := []byte(`{"spec":{"id":"` + pad + `"}}`)
	bulkItems := make([]string, 8)
	for i := range bulkItems {
		bulkItems[i] = `{"id":"` + pad + `"}`
	}
	bulk := []byte("[" + strings.Join(bulkItems, ",") + "]")

	cases := []struct {
		name   string
		method string
		path   string
		secret string
		body   []byte
	}{
		{"add spec", "POST", "/api/v1/specs", writerSecret, single},
		{"add execution", "POST", "/api/v1/executions", writerSecret, single},
		{"update policy", "PUT", "/api/v1/policy", writerSecret, single},
		{"set generalization", "PUT", "/api/v1/generalization", writerSecret, single},
		{"bulk executions", "POST", "/api/v1/executions:bulk", writerSecret, bulk},
		{"add token", "POST", "/api/v1/tokens", adminSecret, single},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Authorization", "Bearer "+tc.secret)
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s %s with oversized body = %d, want 413", tc.method, tc.path, resp.StatusCode)
			}
			var body errorBody
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("413 response is not the JSON envelope: %v", err)
			}
			if body.Error == "" {
				t.Fatal("413 envelope has an empty error")
			}
		})
	}

	// An in-cap body on the same endpoints still works: the caps above
	// were lowered, not the endpoints broken.
	small, _ := json.Marshal(map[string]json.RawMessage{"spec": json.RawMessage(`{"id":"s"}`)})
	if int64(len(small)) >= maxBodyBytes {
		t.Fatalf("test payload %d bytes does not fit the lowered cap", len(small))
	}
	req, _ := http.NewRequest("POST", ts.URL+"/api/v1/specs", bytes.NewReader(small))
	req.Header.Set("Authorization", "Bearer "+writerSecret)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The tiny spec is structurally invalid (no modules), so a 400 — the
	// point is it is not a 413.
	if resp.StatusCode == http.StatusRequestEntityTooLarge {
		t.Fatal("in-cap body rejected as oversized")
	}
}

// TestReadBodyPresizesFromContentLength pins how readBody sizes its buffer
// from Content-Length: an honest header gets a buffer the body fills
// without growing; a header claiming far more than arrives (a lying one)
// reserves about maxBodyPresize and the body still reads whole; and an
// oversize body whose header admits it is refused with the
// *http.MaxBytesError fail() maps to 413, however the header reads.
func TestReadBodyPresizesFromContentLength(t *testing.T) {
	read := func(body []byte, contentLength int64) ([]byte, error) {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/executions", bytes.NewReader(body))
		req.ContentLength = contentLength
		return readBody(httptest.NewRecorder(), req)
	}
	body := bytes.Repeat([]byte("x"), 35<<10)
	for _, tc := range []struct {
		name          string
		contentLength int64
		maxCap        int
	}{
		{"honest", int64(len(body)), len(body) + bytes.MinRead},
		{"lying", 1 << 40, maxBodyPresize + bytes.MinRead},
		{"unknown", -1, 4 * len(body)},
	} {
		tc.maxCap += tc.maxCap / 4 // the allocator rounds up to a size class
		data, err := read(body, tc.contentLength)
		if err != nil || !bytes.Equal(data, body) {
			t.Fatalf("%s Content-Length: read %d bytes, %v; want the %d sent", tc.name, len(data), err, len(body))
		}
		if cap(data) > tc.maxCap {
			t.Fatalf("%s Content-Length: buffer of %d bytes for a %d-byte body; at most %d", tc.name, cap(data), len(body), tc.maxCap)
		}
	}

	oldMax := maxBodyBytes
	maxBodyBytes = 64
	t.Cleanup(func() { maxBodyBytes = oldMax })
	for _, contentLength := range []int64{int64(len(body)), 1 << 40, 16} {
		_, err := read(body, contentLength)
		var tooLarge *http.MaxBytesError
		if !errors.As(err, &tooLarge) {
			t.Fatalf("oversize body with Content-Length %d: %v, want a MaxBytesError", contentLength, err)
		}
	}
}
