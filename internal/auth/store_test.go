package auth

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

func writeTokenFile(t *testing.T, path string, lines ...string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
}

func tokenLine(name string, role Role, user, secret string) string {
	return fmt.Sprintf("%s:%s:%s:%s", name, role, user, HashSecret(secret))
}

func newTestFileStore(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tokens")
	writeTokenFile(t, path,
		tokenLine("t-reader", RoleReader, "bob", "s-reader"),
		tokenLine("t-admin", RoleAdmin, "alice", "s-admin"),
	)
	s, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

// TestStoreSwapCarriesCounters: a reload that leaves a token unchanged
// must keep the token's use counter — rotation of one credential can't
// reset another's metrics.
func TestStoreSwapCarriesCounters(t *testing.T) {
	s, path := newTestFileStore(t)

	if _, ok := s.Authenticate("s-reader"); !ok {
		t.Fatal("reader secret rejected before reload")
	}
	if _, ok := s.Authenticate("bogus"); ok {
		t.Fatal("bogus secret accepted")
	}

	// Rotate the admin token, keep the reader token byte-identical.
	writeTokenFile(t, path,
		tokenLine("t-reader", RoleReader, "bob", "s-reader"),
		tokenLine("t-admin", RoleAdmin, "alice", "s-admin-2"),
	)
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Authenticate("s-admin"); ok {
		t.Fatal("old admin secret still accepted after rotation")
	}
	tok, ok := s.Authenticate("s-admin-2")
	if !ok || tok.User != "alice" {
		t.Fatalf("rotated admin secret rejected (tok=%v ok=%v)", tok, ok)
	}
	if _, ok := s.Authenticate("s-reader"); !ok {
		t.Fatal("unchanged reader secret rejected after reload")
	}
	for _, st := range s.Stats() {
		if st.Name == "t-reader" && st.Uses != 2 {
			t.Fatalf("reader uses = %d after swap, want 2 (counter carried over)", st.Uses)
		}
	}
}

// TestStoreReloadErrorKeepsCurrent: a malformed token file must not
// take effect — the previous set keeps serving.
func TestStoreReloadErrorKeepsCurrent(t *testing.T) {
	s, path := newTestFileStore(t)
	if err := os.WriteFile(path, []byte("not:a:valid:file:too:many:fields\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err == nil {
		t.Fatal("Reload of malformed file succeeded")
	}
	if _, ok := s.Authenticate("s-reader"); !ok {
		t.Fatal("previous token set lost after failed reload")
	}
}

// TestStoreMaybeReload: no-op while the file is untouched, reloads on a
// content change.
func TestStoreMaybeReload(t *testing.T) {
	s, path := newTestFileStore(t)

	if reloaded, err := s.MaybeReload(); err != nil || reloaded {
		t.Fatalf("MaybeReload on untouched file = (%v, %v), want (false, nil)", reloaded, err)
	}

	writeTokenFile(t, path,
		tokenLine("t-reader", RoleReader, "bob", "s-reader"),
		tokenLine("t-admin", RoleAdmin, "alice", "s-admin"),
		tokenLine("t-new", RoleWriter, "carol", "s-new"),
	)
	// Coarse filesystems may keep the same mtime; size differs here, and
	// MaybeReload checks both.
	reloaded, err := s.MaybeReload()
	if err != nil || !reloaded {
		t.Fatalf("MaybeReload after edit = (%v, %v), want (true, nil)", reloaded, err)
	}
	if _, ok := s.Authenticate("s-new"); !ok {
		t.Fatal("token added via file edit not live after MaybeReload")
	}
}

// TestStoreAddRemovePersist: management mutations are durable — a fresh
// LoadFile of the persisted file sees the same set.
func TestStoreAddRemovePersist(t *testing.T) {
	s, path := newTestFileStore(t)

	if err := s.Add("t-ci", "carol", RoleWriter, "s-ci"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Authenticate("s-ci"); !ok {
		t.Fatal("added token not live")
	}
	if err := s.Add("t-ci", "dave", RoleReader, "other"); !errors.Is(err, ErrTokenExists) {
		t.Fatalf("duplicate Add error = %v, want ErrTokenExists", err)
	}

	a, err := LoadFile(path)
	if err != nil {
		t.Fatalf("persisted token file unreadable: %v", err)
	}
	if tok, ok := a.Authenticate("s-ci"); !ok || tok.User != "carol" || tok.Role != RoleWriter {
		t.Fatalf("added token lost on round-trip (tok=%v ok=%v)", tok, ok)
	}

	if err := s.Remove("t-ci"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Authenticate("s-ci"); ok {
		t.Fatal("removed token still authenticates")
	}
	if err := s.Remove("t-ci"); !errors.Is(err, ErrTokenNotFound) {
		t.Fatalf("Remove of unknown token error = %v, want ErrTokenNotFound", err)
	}
	if a, err := LoadFile(path); err != nil {
		t.Fatal(err)
	} else if _, ok := a.Authenticate("s-ci"); ok {
		t.Fatal("removal not persisted")
	}

	// Persisting our own write must not trip the poller.
	if reloaded, err := s.MaybeReload(); err != nil || reloaded {
		t.Fatalf("MaybeReload after own persist = (%v, %v), want (false, nil)", reloaded, err)
	}
}

// TestStoreRefusesRemovingLastToken: an empty token set would lock the
// admin out of the management surface.
func TestStoreRefusesRemovingLastToken(t *testing.T) {
	a, err := New([]*Token{NewToken("only", "alice", RoleAdmin, "s")})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(a)
	if err := s.Remove("only"); err == nil {
		t.Fatal("removing the last token succeeded")
	}
	if _, ok := s.Authenticate("s"); !ok {
		t.Fatal("last token no longer authenticates")
	}
}

// TestStoreConcurrentRotation (-race): authentication stays correct
// while the set is swapped underneath it — the unchanged token never
// spuriously fails, and every generation of the set a reader can load
// holds exactly one of the rotating token's two secrets. The two admin
// answers are taken against one loaded generation: two Store.Authenticate
// calls may straddle a Reload, and "old, then alt" across a swap is a
// correct pair of answers, not two secrets valid at once.
func TestStoreConcurrentRotation(t *testing.T) {
	s, path := newTestFileStore(t)
	stop := make(chan struct{})
	var rotator, readers sync.WaitGroup

	rotator.Add(1)
	go func() { // rotator: flips the admin secret back and forth
		defer rotator.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			secret := "s-admin"
			if i%2 == 1 {
				secret = "s-admin-alt"
			}
			writeTokenFile(t, path,
				tokenLine("t-reader", RoleReader, "bob", "s-reader"),
				tokenLine("t-admin", RoleAdmin, "alice", secret),
			)
			if err := s.Reload(); err != nil {
				t.Errorf("reload: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 500; i++ {
				if _, ok := s.Authenticate("s-reader"); !ok {
					t.Error("unchanged token failed during rotation")
					return
				}
				gen := s.cur.Load()
				_, okOld := gen.Authenticate("s-admin")
				_, okAlt := gen.Authenticate("s-admin-alt")
				if okOld == okAlt {
					t.Errorf("one generation answers old=%v alt=%v, want exactly one admin secret valid", okOld, okAlt)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	rotator.Wait()
}

// FuzzTokenFile: Parse never panics, and any token set it accepts, written
// back by the store's persister and parsed again, is the same set — names,
// users, roles and digests — so a reload or a restart never changes who
// may authenticate.
func FuzzTokenFile(f *testing.F) {
	digest := HashSecret("s")
	for _, seed := range []string{
		"t-a:admin:alice:" + digest + "\n",
		"# comment\n\n  t-a : reader : bob : " + digest + "  \nt-b:writer:carol:" + digest,
		"a:b:c:d\n",
		"t:reader:u:" + digest + "\r\nt:reader:u:" + digest,
		"#t:reader:u:" + digest + "\n x\t:reader:u\x00v:" + digest,
		"t:role7:u:" + digest,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Parse(data)
		if err != nil {
			return
		}
		s := &Store{path: filepath.Join(t.TempDir(), "tokens")}
		if err := s.persistLocked(a.tokens); err != nil {
			t.Fatal(err)
		}
		b, err := LoadFile(s.path)
		if err != nil {
			written, _ := os.ReadFile(s.path)
			t.Fatalf("an accepted set persists to a file that does not load: %v\n%s", err, written)
		}
		type entry struct {
			name, user string
			role       Role
			digest     string
		}
		set := func(a *Authenticator) []entry {
			var out []entry
			for _, t := range a.tokens {
				out = append(out, entry{t.Name, t.User, t.Role, t.digest()})
			}
			slices.SortFunc(out, func(x, y entry) int { return strings.Compare(x.name, y.name) })
			return out
		}
		if got, want := set(b), set(a); !slices.Equal(got, want) {
			t.Fatalf("persisted and parsed again:\n%v\nwas:\n%v", got, want)
		}
	})
}
