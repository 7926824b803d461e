package repo

import (
	"context"
	"sort"

	"provpriv/internal/privacy"
)

// PrewarmMasked rebuilds the masked-snapshot cache of one spec for the
// given access levels — the cheap background job that runs after
// UpdatePolicy/SetGeneralization purge the shard's caches, so the first
// reader at each level pays a warm hit instead of the full
// collapse+taint+mask build. It is the eager ("materialized views",
// paper Section 4) use of the one enforced-view cache: every snapshot is
// built by the same maskedExecFor a lazy read would run, under the same
// key, fence and counters. Levels defaults to every level a registered
// user holds. The context is checked between executions;
// progress (optional) receives (built, total) heartbeats. Returns how
// many snapshots were built or refreshed. A spec removed mid-warm is
// not an error: the warm is simply moot.
func (r *Repository) PrewarmMasked(ctx context.Context, specID string, levels []privacy.Level, progress func(done, total int64)) (int, error) {
	if len(levels) == 0 {
		levels = r.userLevels()
	}
	sh := r.shard(specID)
	if sh == nil || len(levels) == 0 {
		return 0, nil
	}
	sh.mu.RLock()
	ids := make([]string, 0, len(sh.execs))
	for id := range sh.execs {
		ids = append(ids, id)
	}
	sh.mu.RUnlock()
	sort.Strings(ids)
	total := int64(len(ids)) * int64(len(levels))
	var done int64
	if progress != nil {
		progress(0, total)
	}
	built := 0
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return built, err
		}
		sh.mu.RLock()
		e := sh.execs[id]
		sh.mu.RUnlock()
		if e == nil {
			done += int64(len(levels))
			continue // removed mid-warm
		}
		for _, lvl := range levels {
			if _, err := r.maskedExecFor(ctx, sh, e, lvl); err != nil {
				return built, err
			}
			built++
			done++
			if progress != nil {
				progress(done, total)
			}
		}
	}
	return built, nil
}

// userLevels returns the distinct access levels of the registered
// users, ascending — the level set worth keeping warm.
func (r *Repository) userLevels() []privacy.Level {
	seen := make(map[privacy.Level]bool)
	var out []privacy.Level
	for _, u := range r.Users() {
		if !seen[u.Level] {
			seen[u.Level] = true
			out = append(out, u.Level)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
