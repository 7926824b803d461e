package auth

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestParseTokenFile(t *testing.T) {
	data := fmt.Sprintf(`# provpriv tokens
ci-reader:reader:public:%s

ci-writer:writer:analyst:%s
ops:admin:owner:%s
`, HashSecret("s-read"), HashSecret("s-write"), HashSecret("s-admin"))
	a, err := Parse([]byte(data))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	for _, tc := range []struct {
		secret string
		name   string
		user   string
		role   Role
	}{
		{"s-read", "ci-reader", "public", RoleReader},
		{"s-write", "ci-writer", "analyst", RoleWriter},
		{"s-admin", "ops", "owner", RoleAdmin},
	} {
		tok, ok := a.Authenticate(tc.secret)
		if !ok {
			t.Fatalf("secret %q rejected", tc.secret)
		}
		if tok.Name != tc.name || tok.User != tc.user || tok.Role != tc.role {
			t.Fatalf("token = %s/%s/%s, want %s/%s/%s",
				tok.Name, tok.User, tok.Role, tc.name, tc.user, tc.role)
		}
	}
	if _, ok := a.Authenticate("wrong"); ok {
		t.Fatal("bad secret accepted")
	}
	if _, ok := a.Authenticate(""); ok {
		t.Fatal("empty secret accepted")
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	good := HashSecret("x")
	for _, bad := range []string{
		"",                           // no tokens at all
		"# only comments\n",          // likewise
		"one:two:three\n",            // missing field
		"a:b:c:d:e\n",                // extra field
		"t:emperor:u:" + good + "\n", // unknown role
		"t:reader:u:nothex\n",        // bad digest
		"t:reader:u:abcd\n",          // digest too short
		"t:reader:u:" + good + "\nt:reader:u:" + good + "\n", // duplicate name
		"t:reader::" + good + "\n",                           // empty user
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("Parse accepted %q", bad)
		}
	}
}

func TestRoleLadder(t *testing.T) {
	if !RoleAdmin.Allows(RoleReader) || !RoleAdmin.Allows(RoleWriter) || !RoleAdmin.Allows(RoleAdmin) {
		t.Fatal("admin must allow everything")
	}
	if !RoleWriter.Allows(RoleReader) || RoleWriter.Allows(RoleAdmin) {
		t.Fatal("writer allows reader but not admin")
	}
	if RoleReader.Allows(RoleWriter) {
		t.Fatal("reader must not write")
	}
	for _, s := range []string{"reader", "Writer", " ADMIN "} {
		if _, err := ParseRole(s); err != nil {
			t.Errorf("ParseRole(%q): %v", s, err)
		}
	}
	if _, err := ParseRole("root"); err == nil {
		t.Error("ParseRole accepted root")
	}
}

func TestPerTokenMetrics(t *testing.T) {
	a, err := New([]*Token{
		NewToken("a", "public", RoleReader, "sa"),
		NewToken("b", "owner", RoleAdmin, "sb"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := a.Authenticate("sa"); !ok {
			t.Fatal("sa rejected")
		}
	}
	if _, ok := a.Authenticate("sb"); !ok {
		t.Fatal("sb rejected")
	}
	a.Authenticate("nope")
	st := a.Stats()
	if len(st) != 2 || st[0].Name != "a" || st[1].Name != "b" {
		t.Fatalf("stats = %+v", st)
	}
	if st[0].Uses != 3 || st[1].Uses != 1 {
		t.Fatalf("uses = %d/%d, want 3/1", st[0].Uses, st[1].Uses)
	}
	if st[0].Role != "reader" || st[1].Role != "admin" {
		t.Fatalf("roles = %s/%s", st[0].Role, st[1].Role)
	}
}

// TestConcurrentAuthenticate is a -race guard: the token set is shared
// by every request goroutine.
func TestConcurrentAuthenticate(t *testing.T) {
	a, _ := New([]*Token{NewToken("t", "u", RoleWriter, "secret")})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g%2 == 0 {
					if _, ok := a.Authenticate("secret"); !ok {
						t.Error("valid secret rejected")
						return
					}
				} else {
					if _, ok := a.Authenticate("invalid"); ok {
						t.Error("invalid secret accepted")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := a.Stats()[0].Uses; got != 4*50 {
		t.Fatalf("uses = %d, want 200", got)
	}
}

func TestHashSecretFormat(t *testing.T) {
	h := HashSecret("abc")
	if len(h) != 64 || strings.ToLower(h) != h {
		t.Fatalf("digest %q not 64 lowercase hex chars", h)
	}
	// Known vector: sha256("abc").
	if h != "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" {
		t.Fatalf("sha256(abc) = %s", h)
	}
}
