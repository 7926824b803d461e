// Token lifecycle: the Store wraps an Authenticator in an atomic
// pointer so the token set can be rotated while requests are in
// flight. Authenticate loads the current set lock-free; a reload,
// SIGHUP, or management-endpoint mutation builds the *next* set off to
// the side and swaps it in one pointer store. Tokens that survive a
// swap unchanged (same name, user, role and digest) are carried over
// by pointer, so their use counters keep counting and a request that
// authenticated a microsecond before the swap is indistinguishable
// from one a microsecond after — unchanged tokens never flap.
package auth

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Store is a hot-swappable token set. The zero Store is not usable;
// build one with NewStore or NewFileStore.
type Store struct {
	cur atomic.Pointer[Authenticator]

	// mu serializes mutations (Reload/Add/Remove and their file
	// writes); reads never take it.
	mu   sync.Mutex
	path string // token file, "" when the store is memory-only

	// File identity of the last load, so MaybeReload can skip the read
	// when nothing changed.
	mtime time.Time
	size  int64
}

// NewStore wraps an existing token set (tests; servers without a token
// file).
func NewStore(a *Authenticator) *Store {
	s := &Store{}
	s.cur.Store(a)
	return s
}

// NewFileStore loads path and remembers it for Reload/MaybeReload and
// for persisting management-endpoint mutations.
func NewFileStore(path string) (*Store, error) {
	a, err := LoadFile(path)
	if err != nil {
		return nil, err
	}
	s := NewStore(a)
	s.path = path
	if fi, err := os.Stat(path); err == nil {
		s.mtime, s.size = fi.ModTime(), fi.Size()
	}
	return s, nil
}

// Authenticate validates a secret against the live token set.
func (s *Store) Authenticate(secret string) (*Token, bool) {
	return s.cur.Load().Authenticate(secret)
}

// Stats snapshots the live token set.
func (s *Store) Stats() []TokenStat { return s.cur.Load().Stats() }

// swap publishes next, carrying over per-token use counters (for
// tokens unchanged in name/user/role/digest).
// Caller holds s.mu.
func (s *Store) swap(next *Authenticator) {
	old := s.cur.Load()
	if old != nil {
		byName := make(map[string]*Token, len(old.tokens))
		for _, t := range old.tokens {
			byName[t.Name] = t
		}
		for i, t := range next.tokens {
			if prev, ok := byName[t.Name]; ok &&
				prev.User == t.User && prev.Role == t.Role && prev.hash == t.hash {
				// Same credential: share the Token so in-flight
				// Authenticate results and counters stay coherent.
				next.tokens[i] = prev
			}
		}
	}
	s.cur.Store(next)
}

// Reload re-reads the token file and swaps the result in. Errors leave
// the current set untouched — a malformed edit can't lock everyone out.
func (s *Store) Reload() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reloadLocked()
}

func (s *Store) reloadLocked() error {
	if s.path == "" {
		return fmt.Errorf("auth: store has no token file to reload")
	}
	a, err := LoadFile(s.path)
	if err != nil {
		return err
	}
	if fi, err := os.Stat(s.path); err == nil {
		s.mtime, s.size = fi.ModTime(), fi.Size()
	}
	s.swap(a)
	return nil
}

// MaybeReload reloads only when the token file's mtime or size changed
// since the last load — the cheap poll for a watcher loop. Returns
// whether a reload happened.
func (s *Store) MaybeReload() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.path == "" {
		return false, nil
	}
	fi, err := os.Stat(s.path)
	if err != nil {
		return false, fmt.Errorf("auth: %w", err)
	}
	if fi.ModTime().Equal(s.mtime) && fi.Size() == s.size {
		return false, nil
	}
	if err := s.reloadLocked(); err != nil {
		return false, err
	}
	return true, nil
}

var (
	// ErrTokenExists reports an Add with an already-registered name.
	ErrTokenExists = fmt.Errorf("auth: token name already exists")
	// ErrTokenNotFound reports a Remove of an unknown name.
	ErrTokenNotFound = fmt.Errorf("auth: token not found")
)

// Add registers a new token, persisting the token file when the store
// has one. The secret is hashed immediately and never stored.
func (s *Store) Add(name, user string, role Role, secret string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur.Load()
	tokens := make([]*Token, 0, len(old.tokens)+1)
	for _, t := range old.tokens {
		if t.Name == name {
			return fmt.Errorf("%w: %q", ErrTokenExists, name)
		}
		tokens = append(tokens, t)
	}
	tokens = append(tokens, NewToken(name, user, role, secret))
	next, err := New(tokens)
	if err != nil {
		return err
	}
	if err := s.persistLocked(tokens); err != nil {
		return err
	}
	s.swap(next)
	return nil
}

// Remove revokes a token by name: in-flight requests that already
// authenticated finish, the next request with that secret fails.
// The last token cannot be removed — an empty set would lock the
// admin out of the management surface itself.
func (s *Store) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur.Load()
	tokens := make([]*Token, 0, len(old.tokens))
	found := false
	for _, t := range old.tokens {
		if t.Name == name {
			found = true
			continue
		}
		tokens = append(tokens, t)
	}
	if !found {
		return fmt.Errorf("%w: %q", ErrTokenNotFound, name)
	}
	if len(tokens) == 0 {
		return fmt.Errorf("auth: refusing to remove the last token %q", name)
	}
	next, err := New(tokens)
	if err != nil {
		return err
	}
	if err := s.persistLocked(tokens); err != nil {
		return err
	}
	s.swap(next)
	return nil
}

// persistLocked rewrites the token file atomically (temp + rename) so
// a crash mid-write can't leave a torn file, then records the new file
// identity so the poller doesn't immediately re-reload our own write.
// No-op for memory-only stores.
func (s *Store) persistLocked(tokens []*Token) error {
	if s.path == "" {
		return nil
	}
	sorted := append([]*Token(nil), tokens...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	b.WriteString("# provserve token file — name:role:user:sha256hex\n")
	for _, t := range sorted {
		fmt.Fprintf(&b, "%s:%s:%s:%s\n", t.Name, t.Role, t.User, t.digest())
	}
	dir := filepath.Dir(s.path)
	tmp, err := os.CreateTemp(dir, ".tokens-*")
	if err != nil {
		return fmt.Errorf("auth: persist tokens: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if _, err := tmp.WriteString(b.String()); err != nil {
		tmp.Close()
		return fmt.Errorf("auth: persist tokens: %w", err)
	}
	if err := tmp.Chmod(0o600); err != nil {
		tmp.Close()
		return fmt.Errorf("auth: persist tokens: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("auth: persist tokens: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("auth: persist tokens: %w", err)
	}
	if err := os.Rename(tmpName, s.path); err != nil {
		return fmt.Errorf("auth: persist tokens: %w", err)
	}
	if fi, err := os.Stat(s.path); err == nil {
		s.mtime, s.size = fi.ModTime(), fi.Size()
	}
	return nil
}
