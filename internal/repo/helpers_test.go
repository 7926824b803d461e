package repo

import (
	"context"

	"provpriv/internal/exec"
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
