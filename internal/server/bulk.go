package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"provpriv/internal/exec"
	"provpriv/internal/obs"
)

// bulkMaxBodyBytes bounds the bulk-ingest body. Bulk exists to load a
// corpus in one request, so it gets a far larger cap than the single-
// object mutation endpoints. A variable so tests can lower it to
// exercise the 413 path without quarter-gigabyte payloads.
var bulkMaxBodyBytes int64 = 256 << 20

// bulkErrorCap bounds the per-item errors echoed in a bulk result; the
// failed count is always exact, the error list is a sample.
const bulkErrorCap = 100

// bulkItemHook, when set, runs before each bulk-ingest item is applied.
// Test seam: the cancel-mid-ingest churn test uses it to park the
// handler so cancellation lands between items.
var bulkItemHook func(i int)

// bulkItemError is one failed item of a bulk ingest: which array index,
// which execution (when the item parsed far enough to name one), and
// why.
type bulkItemError struct {
	Index int    `json:"index"`
	Exec  string `json:"exec,omitempty"`
	Error string `json:"error"`
}

// bulkResult is a bulk ingest's answer. Failed is exact; Errors samples
// the first bulkErrorCap failures.
type bulkResult struct {
	Added           int             `json:"added"`
	Failed          int             `json:"failed"`
	Errors          []bulkItemError `json:"errors,omitempty"`
	ErrorsTruncated bool            `json:"errors_truncated,omitempty"`
}

// handleBulkExecutions accepts a JSON array of execution objects and
// applies them in order inside the request, answering 200 with the
// per-item accounting once every item is applied or failed. One bad
// execution fails that item — recorded in the result with its index —
// never the batch. A cancelled request context (the client hung up, or
// shutdown ran out of time) stops the batch between items: what was
// applied stays, each item atomically, and the answer is a 503 naming how
// far the batch got.
func (s *Server) handleBulkExecutions(w http.ResponseWriter, r *http.Request, user string) {
	items, err := decodeBulkItems(w, r)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	res := &bulkResult{}
	for i, raw := range items {
		if err := r.Context().Err(); err != nil {
			err = fmt.Errorf("server: bulk ingest stopped after %d of %d items (%d added, %d failed): %w",
				i, len(items), res.Added, res.Failed, err)
			obs.RequestLogger(s.Logger, w, r).Warn("request failed", "status", http.StatusServiceUnavailable, "error", err)
			s.writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error(), RequestID: obs.RequestID(w)})
			return
		}
		if bulkItemHook != nil {
			bulkItemHook(i)
		}
		if err := s.bulkItem(raw); err != nil {
			res.Failed++
			if len(res.Errors) < bulkErrorCap {
				res.Errors = append(res.Errors, bulkItemError{
					Index: i, Exec: execIDOf(raw), Error: err.Error(),
				})
			} else {
				res.ErrorsTruncated = true
			}
		} else {
			res.Added++
		}
	}
	s.mutations.Add(1)
	s.writeJSON(w, http.StatusOK, res)
}

// bulkItem validates and applies one bulk item with the same strictness
// as POST /api/v1/executions.
func (s *Server) bulkItem(raw json.RawMessage) error {
	e, err := exec.DecodeExecution(raw)
	if err != nil {
		return err
	}
	if e.ID == "" || e.SpecID == "" {
		return fmt.Errorf("server: execution needs non-empty id and spec")
	}
	return s.repo.AddExecution(e)
}

// execIDOf best-effort extracts the execution id of a raw bulk item for
// error reporting; a malformed item just reports by index.
func execIDOf(raw json.RawMessage) string {
	var probe struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(raw, &probe) != nil {
		return ""
	}
	return probe.ID
}

// decodeBulkItems streams the request's JSON array into raw items
// without decoding the executions yet (that is the apply loop's job, with
// per-item error accounting). A malformed array envelope is the
// caller's 400; malformed elements inside it are per-item failures.
func decodeBulkItems(w http.ResponseWriter, r *http.Request) ([]json.RawMessage, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, bulkMaxBodyBytes))
	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("server: bad bulk body: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return nil, fmt.Errorf("server: bulk body must be a JSON array of executions")
	}
	var items []json.RawMessage
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			// %w keeps an oversized body's *http.MaxBytesError reachable
			// for fail()'s 413 mapping.
			return nil, fmt.Errorf("server: bad bulk body at item %d: %w", len(items), err)
		}
		items = append(items, raw)
	}
	if _, err := dec.Token(); err != nil { // closing ']'
		return nil, fmt.Errorf("server: bad bulk body: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("server: trailing data after bulk body")
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("server: bulk body holds no executions")
	}
	return items, nil
}
