package repo

import (
	"context"
	"maps"
	"slices"

	"provpriv/internal/privacy"
)

// PrewarmMasked fills the masked-snapshot cache of one spec's installed
// generation for the given access levels — the cheap background job that
// runs after UpdatePolicy/SetGeneralization install one, with empty caches,
// so the first reader at each level pays a warm hit instead of the full
// collapse+taint+mask build. It is the eager ("materialized views", paper
// Section 4) use of the one enforced-view cache: every snapshot is built by
// the same maskedExec a lazy read would run, under the same key and
// counters, and the generation is taken afresh per execution, so a warm
// overtaken by an install goes on in the one readers now ask. Levels defaults
// to every level a registered user holds. The context is checked between
// executions; progress (optional) receives (built, total) heartbeats.
// Returns how many snapshots were built or refreshed. A spec removed
// mid-warm is not an error: the warm is simply moot.
func (r *Repository) PrewarmMasked(ctx context.Context, specID string, levels []privacy.Level, progress func(done, total int64)) (int, error) {
	if len(levels) == 0 {
		levels = r.userLevels()
	}
	sh := r.shard(specID)
	if sh == nil || len(levels) == 0 {
		return 0, nil
	}
	sh.mu.RLock()
	execs := sh.executions()
	sh.mu.RUnlock()
	total := int64(len(execs)) * int64(len(levels))
	if progress != nil {
		progress(0, total)
	}
	built := 0
	for _, e := range execs {
		if err := ctx.Err(); err != nil {
			return built, err
		}
		gen := sh.current()
		for _, lvl := range levels {
			if _, err := sh.maskedExec(ctx, gen, e, lvl); err != nil {
				return built, err
			}
			built++
			if progress != nil {
				progress(int64(built), total)
			}
		}
	}
	return built, nil
}

// userLevels returns the distinct access levels of the registered
// users, ascending — the level set worth keeping warm.
func (r *Repository) userLevels() []privacy.Level {
	seen := make(map[privacy.Level]bool)
	for _, u := range r.Users() {
		seen[u.Level] = true
	}
	return slices.Sorted(maps.Keys(seen))
}
