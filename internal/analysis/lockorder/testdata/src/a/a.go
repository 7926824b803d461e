package a

import "sync"

// Repository and repoShard mirror internal/repo's lock fields so the
// rank table (keyed on type name + field) applies to the fixture.
type Repository struct {
	polMu   sync.Mutex
	saveMu  sync.Mutex
	mu      sync.RWMutex
	usersMu sync.RWMutex
}

type repoShard struct {
	mu sync.RWMutex
}

type box struct {
	mu sync.Mutex
}

func (r *Repository) goodOrder(sh *repoShard) {
	r.polMu.Lock()
	defer r.polMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
}

func (r *Repository) goodSavePath(sh *repoShard) {
	r.saveMu.Lock()
	defer r.saveMu.Unlock()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
}

func (r *Repository) shardBeforePolicy(sh *repoShard) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r.polMu.Lock() // want "acquires r.polMu while holding sh.mu, inverting the lock hierarchy"
	defer r.polMu.Unlock()
}

func (r *Repository) saveBeforePolicy() {
	r.saveMu.Lock()
	defer r.saveMu.Unlock()
	r.polMu.Lock() // want "acquires r.polMu while holding r.saveMu"
	defer r.polMu.Unlock()
}

func (r *Repository) usersBeforeDirectory() {
	r.usersMu.Lock()
	defer r.usersMu.Unlock()
	r.mu.RLock() // want "acquires r.mu while holding r.usersMu"
	defer r.mu.RUnlock()
}

func (r *Repository) recursive() {
	r.polMu.Lock()
	defer r.polMu.Unlock()
	r.polMu.Lock() // want "recursive lock of r.polMu"
	defer r.polMu.Unlock()
}

// Sequential (non-nested) sections are not an ordering violation.
func (r *Repository) sequential(sh *repoShard) {
	sh.mu.Lock()
	sh.mu.Unlock()
	r.polMu.Lock()
	r.polMu.Unlock()
}

// An explicit unlock with no return in between is fine.
func (b *box) explicitUnlock() int {
	b.mu.Lock()
	v := 1
	b.mu.Unlock()
	return v
}

// A deferred closure releasing the lock counts as a deferred unlock.
func (b *box) closureUnlock() {
	b.mu.Lock()
	defer func() {
		b.mu.Unlock()
	}()
}

func (b *box) earlyReturn(cond bool) int {
	b.mu.Lock() // want "b.mu is still locked on the return path"
	if cond {
		return 1
	}
	b.mu.Unlock()
	return 0
}

func (b *box) neverReleased() {
	b.mu.Lock() // want "never released in this function"
}

func (b *box) annotatedHandoff() {
	//provlint:ignore lockorder lock handed off to the caller, released by (*box).release
	b.mu.Lock()
}

func (b *box) release() {
	b.mu.Unlock()
}
