package repo

import (
	"context"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/query"
)

// execution returns one stored execution (nil when absent).
func (r *Repository) execution(specID, execID string) *exec.Execution {
	sh := r.shard(specID)
	if sh == nil {
		return nil
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.execs[execID]
}

// QueryAll is QueryAllPageCtx without a window or a context: every
// non-empty answer, in execution-id order.
func (r *Repository) QueryAll(userName, specID, queryText string) ([]*query.Answer, error) {
	answers, _, err := r.QueryAllPageCtx(context.Background(), userName, specID, queryText, 0, 0)
	return answers, err
}

// warm reads every execution of a spec at each of levels through the one
// fill path, under the installed generation, and returns how many snapshots
// it asked for: the next read of any of them is a hit. Nothing fills the
// cache ahead of a reader, so a test that wants it warm reads it warm.
func warm(t testing.TB, r *Repository, specID string, levels []privacy.Level) int {
	t.Helper()
	sh, n := r.shard(specID), 0
	for _, execID := range r.ExecutionIDs(specID) {
		for _, lvl := range levels {
			if _, err := sh.maskedExec(context.Background(), sh.current(), r.execution(specID, execID), lvl); err != nil {
				t.Errorf("warming %s/%s at %v: %v", specID, execID, lvl, err)
				return n
			}
			n++
		}
	}
	return n
}
