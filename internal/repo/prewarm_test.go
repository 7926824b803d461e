package repo

import (
	"context"
	"errors"
	"testing"

	"provpriv/internal/privacy"
)

// TestPrewarmMaskedWarmsCache: after a policy change purges the
// masked-snapshot cache, PrewarmMasked rebuilds one snapshot per
// (execution, level) and the next enforced read is a cache hit.
func TestPrewarmMaskedWarmsCache(t *testing.T) {
	r := seededRepo(t)
	const sid = "disease-susceptibility"
	// Distinct user levels: Owner, Public, Analyst → 3 snapshots for the
	// single execution.
	var beats int
	built, err := r.PrewarmMasked(context.Background(), sid, nil, func(done, total int64) {
		beats++
		if total != 3 {
			t.Errorf("progress total = %d, want 3", total)
		}
	})
	if err != nil {
		t.Fatalf("PrewarmMasked: %v", err)
	}
	if built != 3 {
		t.Fatalf("built %d snapshots, want 3", built)
	}
	if beats < 2 {
		t.Errorf("progress heartbeats = %d, want at least initial + final", beats)
	}
	hits0 := r.Stats().MaskedCacheHits
	if _, err := r.Query("carol", sid, "E1", `MATCH a = "reformat"`); err != nil {
		t.Fatalf("Query after prewarm: %v", err)
	}
	if hits := r.Stats().MaskedCacheHits; hits <= hits0 {
		t.Fatalf("warm read missed the cache: hits %d -> %d", hits0, hits)
	}

	// A policy change invalidates; re-warming serves the new generation.
	pol := privacy.NewPolicy(sid)
	if err := r.UpdatePolicy(sid, pol); err != nil {
		t.Fatalf("UpdatePolicy: %v", err)
	}
	if built, err = r.PrewarmMasked(context.Background(), sid, nil, nil); err != nil || built != 3 {
		t.Fatalf("re-warm: built %d, err %v", built, err)
	}
	hits1 := r.Stats().MaskedCacheHits
	if _, err := r.Query("carol", sid, "E1", `MATCH a = "reformat"`); err != nil {
		t.Fatalf("Query after re-warm: %v", err)
	}
	if hits := r.Stats().MaskedCacheHits; hits <= hits1 {
		t.Fatalf("re-warmed read missed the cache: hits %d -> %d", hits1, hits)
	}

	// Unknown spec and explicit empty level set are clean no-ops.
	if built, err := r.PrewarmMasked(context.Background(), "nope", nil, nil); err != nil || built != 0 {
		t.Fatalf("prewarm of unknown spec: built %d, err %v", built, err)
	}
}

func TestPrewarmMaskedCanceled(t *testing.T) {
	r := seededRepo(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	built, err := r.PrewarmMasked(ctx, "disease-susceptibility", nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled prewarm = (%d, %v), want context.Canceled", built, err)
	}
	if built != 0 {
		t.Errorf("canceled-before-start prewarm built %d snapshots", built)
	}
}

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
