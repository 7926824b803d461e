package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"provpriv/internal/exec"
	"provpriv/internal/obs"
	"provpriv/internal/repo"
	"provpriv/internal/tasks"
)

// The async surface: heavy operations return 202 + a task id instead of
// holding the connection, and the task endpoints let callers watch and
// cancel them. The runtime itself (internal/tasks) is owned by the
// operator (cmd/provserve sizes the pool and drains it on shutdown);
// a server without one serves 503 on the task surface.

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
// worker so cancellation lands between items.
var bulkItemHook func(i int)

// submitErr maps task-runtime submission failures: a full queue is
// backpressure (429), a draining or absent runtime is the server going
// away (503).
func (s *Server) submitErr(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusServiceUnavailable
	if errors.Is(err, tasks.ErrQueueFull) {
		status = http.StatusTooManyRequests
		// Backpressure, not rejection: tell bulk clients when to come
		// back instead of letting them hammer the full queue. Queue
		// drain time is workload-dependent; one second is the
		// shortest honest hint.
		w.Header().Set("Retry-After", "1")
	}
	if s.Logger != nil {
		obs.RequestLogger(s.Logger, w, r).Warn("task submission rejected", "status", status, "error", err)
	}
	s.writeJSON(w, status, errorBody{Error: err.Error(), RequestID: obs.RequestID(w)})
}

// requireTasks serves 503 when no task runtime is configured.
func (s *Server) requireTasks(w http.ResponseWriter, r *http.Request) bool {
	if s.Tasks == nil {
		s.submitErr(w, r, fmt.Errorf("server: no task runtime configured"))
		return false
	}
	return true
}

// accepted writes the 202 envelope for a submitted task, with the
// status URL in Location.
func (s *Server) accepted(w http.ResponseWriter, id string, extra map[string]any) {
	body := map[string]any{"task": id}
	for k, v := range extra {
		body[k] = v
	}
	w.Header().Set("Location", "/api/v1/tasks/"+id)
	s.writeJSON(w, http.StatusAccepted, body)
}

func (s *Server) handleListTasks(w http.ResponseWriter, r *http.Request, user string) {
	if !s.requireTasks(w, r) {
		return
	}
	limit, offset, err := parsePage(r.URL.Query())
	if err != nil {
		s.fail(w, r, err)
		return
	}
	list, total := s.Tasks.List(limit, offset)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"tasks": list, "total": total, "offset": offset,
	})
}

func (s *Server) handleGetTask(w http.ResponseWriter, r *http.Request, user string) {
	if !s.requireTasks(w, r) {
		return
	}
	snap, err := s.Tasks.Get(r.PathValue("id"))
	if err != nil {
		s.fail(w, r, fmt.Errorf("server: %v: %w", err, repo.ErrNotFound))
		return
	}
	s.writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleCancelTask(w http.ResponseWriter, r *http.Request, user string) {
	if !s.requireTasks(w, r) {
		return
	}
	setAuditTarget(w, r.PathValue("id"))
	snap, err := s.Tasks.Cancel(r.PathValue("id"))
	if err != nil {
		s.fail(w, r, fmt.Errorf("server: %v: %w", err, repo.ErrNotFound))
		return
	}
	s.writeJSON(w, http.StatusOK, snap)
}

// bulkItemError is one failed item of a bulk ingest: which array index,
// which execution (when the item parsed far enough to name one), and
// why.
type bulkItemError struct {
	Index int    `json:"index"`
	Exec  string `json:"exec,omitempty"`
	Error string `json:"error"`
}

// bulkResult is a bulk-ingest task's terminal result. Failed is exact;
// Errors samples the first bulkErrorCap failures.
type bulkResult struct {
	Added           int             `json:"added"`
	Failed          int             `json:"failed"`
	Errors          []bulkItemError `json:"errors,omitempty"`
	ErrorsTruncated bool            `json:"errors_truncated,omitempty"`
}

// handleBulkExecutions accepts a JSON array of execution objects and
// ingests it on the worker pool: the request returns 202 + a task id
// as soon as the array has been read and split, and the task reports
// per-item progress. One bad execution fails that item — recorded in
// the result with its index — never the batch.
func (s *Server) handleBulkExecutions(w http.ResponseWriter, r *http.Request, user string) {
	if !s.requireTasks(w, r) {
		return
	}
	items, err := decodeBulkItems(w, r)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	id, err := s.Tasks.Submit("bulk-ingest", func(ctx context.Context, p *tasks.Progress) (any, error) {
		res := &bulkResult{}
		p.Set(0, int64(len(items)))
		for i, raw := range items {
			if err := ctx.Err(); err != nil {
				// Canceled mid-batch: everything ingested so far stays —
				// each item was applied atomically by the engine.
				return nil, err
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
				p.Note(err)
			} else {
				res.Added++
			}
			p.Add(1)
		}
		return res, nil
	})
	if err != nil {
		s.submitErr(w, r, err)
		return
	}
	s.mutations.Add(1)
	s.accepted(w, id, map[string]any{"items": len(items)})
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
// without decoding the executions yet (that is the task's job, with
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
