package repo

import (
	"context"
	"errors"
	"testing"
)

// TestReadPathsHonorCanceledContext: the ctx-threaded read paths return
// the context's error instead of computing a result nobody will read.
func TestReadPathsHonorCanceledContext(t *testing.T) {
	r := seededRepo(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const sid = "disease-susceptibility"
	if _, _, err := r.SearchPageCtx(ctx, "carol", "disease", SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchPageCtx canceled = %v, want context.Canceled", err)
	}
	if _, _, err := r.QueryAllPageCtx(ctx, "carol", sid, `MATCH a = "reformat"`, 0, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryAllPageCtx canceled = %v, want context.Canceled", err)
	}
	if _, err := r.ProvenanceWithCtx(ctx, "alice", sid, "E1", "d1", ProvenanceOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("ProvenanceWithCtx canceled = %v, want context.Canceled", err)
	}
	// The live-context paths still work and return identical results to
	// the ctx-less wrappers.
	hits, total, err := r.SearchPageCtx(context.Background(), "carol", "disease", SearchOptions{})
	if err != nil {
		t.Fatalf("SearchPageCtx: %v", err)
	}
	hits2, total2, err := r.SearchPageCtx(context.Background(), "carol", "disease", SearchOptions{})
	if err != nil {
		t.Fatalf("SearchPageCtx: %v", err)
	}
	if len(hits) != len(hits2) || total != total2 {
		t.Errorf("ctx and plain search disagree: %d/%d vs %d/%d", len(hits), total, len(hits2), total2)
	}
}
