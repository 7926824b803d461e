package repo

import (
	"context"
	"fmt"
	"testing"

	"provpriv/internal/exec"
)

// TestSearchPageTilesFullSearch: windows of SearchPageCtx must tile the
// full Search result exactly — same hits, same order, exact total —
// even though out-of-window specs never get their minimal view built.
func TestSearchPageTilesFullSearch(t *testing.T) {
	r := multiSpecRepo(t, 8)
	for _, user := range []string{"pub", "reg", "ana"} {
		for _, q := range []string{"query", "alpha", "query, data"} {
			full, err := r.Search(user, q, SearchOptions{})
			if err != nil {
				continue // no match at this level: nothing to tile
			}
			for limit := 1; limit <= 3; limit++ {
				var tiled []SearchHit
				for off := 0; ; off += limit {
					page, total, err := r.SearchPageCtx(context.Background(), user, q, SearchOptions{
						Limit: limit, Offset: off,
					})
					if err != nil {
						t.Fatalf("%s %q limit=%d off=%d: %v", user, q, limit, off, err)
					}
					if total != len(full) {
						t.Fatalf("%s %q: total %d != full %d", user, q, total, len(full))
					}
					if len(page) == 0 {
						break
					}
					tiled = append(tiled, page...)
				}
				if len(tiled) != len(full) {
					t.Fatalf("%s %q limit=%d: tiled %d hits, full %d", user, q, limit, len(tiled), len(full))
				}
				for i := range full {
					if tiled[i].SpecID != full[i].SpecID || tiled[i].Score != full[i].Score {
						t.Fatalf("%s %q limit=%d page item %d: %s/%f != %s/%f",
							user, q, limit, i, tiled[i].SpecID, tiled[i].Score, full[i].SpecID, full[i].Score)
					}
					if len(tiled[i].Result.Matches) != len(full[i].Result.Matches) {
						t.Fatalf("%s %q item %d: window materialized a different view", user, q, i)
					}
				}
			}
			// Offset past the end: empty window, total intact.
			page, total, err := r.SearchPageCtx(context.Background(), user, q, SearchOptions{
				Limit: 2, Offset: len(full) + 3,
			})
			if err != nil || len(page) != 0 || total != len(full) {
				t.Fatalf("%s %q past-end: %d hits total %d err %v", user, q, len(page), total, err)
			}
		}
	}
}

// TestSearchPageCachedWindows: the result cache keys windows separately,
// so a cached page never bleeds into another window or another group.
func TestSearchPageCachedWindows(t *testing.T) {
	r := multiSpecRepo(t, 6)
	p0, total0, err := r.SearchPageCtx(context.Background(), "ana", "query", SearchOptions{Limit: 1, Offset: 0})
	if err != nil {
		t.Fatalf("page 0: %v", err)
	}
	p1, total1, err := r.SearchPageCtx(context.Background(), "ana", "query", SearchOptions{Limit: 1, Offset: 1})
	if err != nil {
		t.Fatalf("page 1: %v", err)
	}
	if total0 != total1 || total0 < 2 {
		t.Fatalf("totals %d/%d (need >=2 hits)", total0, total1)
	}
	if p0[0].SpecID == p1[0].SpecID {
		t.Fatalf("cached window bled: both pages returned %s", p0[0].SpecID)
	}
	// Repeat must hit the cache and return the identical window.
	p0b, _, err := r.SearchPageCtx(context.Background(), "ana", "query", SearchOptions{Limit: 1, Offset: 0})
	if err != nil || p0b[0].SpecID != p0[0].SpecID {
		t.Fatalf("cached repeat diverged: %v %v", p0b, err)
	}
}

// TestQueryAllPageTilesFull: QueryAllPageCtx windows tile QueryAll, totals
// are exact, and windowed answers carry their materialized return
// clauses (provenance) while out-of-window answers never built them.
func TestQueryAllPageTilesFull(t *testing.T) {
	r := seededRepo(t)
	s := r.Spec("disease-susceptibility")
	for i := 2; i <= 5; i++ {
		e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("E%d", i), map[string]exec.Value{
			"snps": exec.Value(fmt.Sprintf("rs%d", i)), "ethnicity": "e", "lifestyle": "l",
			"family_history": "f", "symptoms": "s",
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := r.AddExecution(e); err != nil {
			t.Fatalf("AddExecution: %v", err)
		}
	}
	const q = `MATCH a = "reformat" RETURN provenance(a)`
	full, err := r.QueryAll("alice", "disease-susceptibility", q)
	if err != nil {
		t.Fatalf("QueryAll: %v", err)
	}
	if len(full) != 5 {
		t.Fatalf("full answers = %d, want 5", len(full))
	}
	for limit := 1; limit <= 3; limit++ {
		var execIDs []string
		for off := 0; ; off += limit {
			page, total, err := r.QueryAllPageCtx(context.Background(), "alice", "disease-susceptibility", q, limit, off)
			if err != nil {
				t.Fatalf("limit=%d off=%d: %v", limit, off, err)
			}
			if total != len(full) {
				t.Fatalf("total %d != %d", total, len(full))
			}
			if len(page) == 0 {
				break
			}
			for _, ans := range page {
				execIDs = append(execIDs, ans.ExecutionID)
				if len(ans.Provenance) == 0 {
					t.Fatalf("windowed answer %s lacks materialized provenance", ans.ExecutionID)
				}
			}
		}
		for i := range full {
			if execIDs[i] != full[i].ExecutionID {
				t.Fatalf("limit=%d: tiling order %v diverges from full", limit, execIDs)
			}
		}
	}
	// Past-the-end offset: empty, total preserved.
	page, total, err := r.QueryAllPageCtx(context.Background(), "alice", "disease-susceptibility", q, 2, 99)
	if err != nil || len(page) != 0 || total != len(full) {
		t.Fatalf("past-end: %d answers total %d err %v", len(page), total, err)
	}
	// Negative windows are rejected.
	if _, _, err := r.QueryAllPageCtx(context.Background(), "alice", "disease-susceptibility", q, -1, 0); err == nil {
		t.Fatal("negative limit accepted")
	}
	if _, _, err := r.SearchPageCtx(context.Background(), "alice", "omim", SearchOptions{Offset: -1}); err == nil {
		t.Fatal("negative offset accepted")
	}
}
