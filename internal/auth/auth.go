// Package auth implements bearer-token authentication for the HTTP
// provenance service: the "real authn story" the ROADMAP demands in
// front of the mutation surface. The PR 1 scheme — a trusted
// X-Prov-User header — is fine inside a private network but indefensible
// for a write path: any client naming an owner-level principal gets that
// principal's view, and with mutation endpoints it would get the
// repository's pen too.
//
// Design:
//
//   - A token is (name, repository user, role, SHA-256(secret)). The
//     server never stores or logs a secret; the token file carries only
//     the hex digest. Secrets MUST be high-entropy random strings
//     (generate them with NewSecret / `provserve -new-token`): a single
//     unsalted SHA-256 is preimage-resistant for a 128-bit random
//     secret, but a human-chosen password would fall to an offline
//     dictionary run if the file leaked. The loader refuses nothing
//     here — entropy is not observable from a digest — so the
//     generation tooling is the guard rail.
//   - Roles form a ladder — reader < writer < admin — gating the read
//     endpoints, the mutation endpoints, and the operational endpoints
//     (save) respectively. The repository user bound to the token still
//     decides the *privacy level* of reads: authn says who you are,
//     the privacy engine decides what you see.
//   - Authentication is a constant-time scan: the presented secret is
//     hashed once and compared against every registered token with
//     crypto/subtle, no early exit, so response timing reveals neither
//     whether a token exists nor how much of it matched.
//   - Per-token use counters feed the service's /stats and /metrics
//     exposition (the server counts failed authentications itself).
//
// Token file format, one token per line:
//
//	# comment
//	name:role:user:sha256hex
//	ci-writer:writer:analyst:2bb80d537b1da3e38bd30361aa855686bde0eacd7162fef6a25fe97bf527a25b
//
// Generate a digest with `provserve -hash-secret` (reads the secret from
// stdin) or `printf %s "$SECRET" | sha256sum`.
package auth

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
)

// Role is a token's authorization tier. Higher roles include the lower
// ones (an admin can write, a writer can read).
type Role int

const (
	// RoleReader may call the read endpoints (search, query, reach,
	// provenance, specs, stats).
	RoleReader Role = iota
	// RoleWriter may additionally call the mutation endpoints (add
	// spec/execution, remove spec, update policy, set generalization).
	RoleWriter
	// RoleAdmin may additionally call the operational endpoints (save).
	RoleAdmin
)

// Allows reports whether the role grants everything required does.
func (r Role) Allows(required Role) bool { return r >= required }

func (r Role) String() string {
	switch r {
	case RoleReader:
		return "reader"
	case RoleWriter:
		return "writer"
	case RoleAdmin:
		return "admin"
	default:
		return fmt.Sprintf("role%d", int(r))
	}
}

// ParseRole parses "reader", "writer" or "admin".
func ParseRole(s string) (Role, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "reader":
		return RoleReader, nil
	case "writer":
		return RoleWriter, nil
	case "admin":
		return RoleAdmin, nil
	default:
		return 0, fmt.Errorf("auth: unknown role %q (want reader, writer or admin)", s)
	}
}

// Token is one registered credential. The secret itself is never held —
// only its SHA-256 digest.
type Token struct {
	// Name labels the token in metrics and logs (never secret).
	Name string
	// User is the repository principal the token authenticates as; read
	// endpoints evaluate at that user's privacy level.
	User string
	// Role is the token's authorization tier.
	Role Role

	hash [sha256.Size]byte
	uses atomic.Int64
}

// Uses returns how many requests the token has successfully
// authenticated.
func (t *Token) Uses() int64 { return t.uses.Load() }

// digest returns the hex-encoded secret digest — the token-file
// representation. Not exported: the only consumer is the Store's file
// writer.
func (t *Token) digest() string { return hex.EncodeToString(t.hash[:]) }

// TokenStat is one token's metrics snapshot (no secret material).
type TokenStat struct {
	Name string `json:"name"`
	User string `json:"user"`
	Role string `json:"role"`
	Uses int64  `json:"uses"`
}

// Authenticator validates bearer secrets against a fixed token set. The
// set is immutable after construction, so Authenticate is safe for
// arbitrary concurrency; counters are atomic.
type Authenticator struct {
	tokens []*Token
}

// HashSecret returns the hex SHA-256 digest of a secret — the third
// field of a token-file line.
func HashSecret(secret string) string {
	sum := sha256.Sum256([]byte(secret))
	return hex.EncodeToString(sum[:])
}

// NewSecret generates a fresh 256-bit random secret (hex-encoded) —
// the only kind of secret that makes the stored single-hash digest
// safe against offline guessing if the token file leaks.
func NewSecret() (string, error) {
	var buf [32]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "", fmt.Errorf("auth: generate secret: %w", err)
	}
	return hex.EncodeToString(buf[:]), nil
}

// New builds an authenticator from explicit tokens (mainly for tests;
// servers load a token file). Token names must be unique, and every token
// must survive a round trip through the token file: Parse and Store.Add
// both end here, so nothing either accepts can be persisted into a file
// that loads differently, or not at all.
func New(tokens []*Token) (*Authenticator, error) {
	seen := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		if err := fileField("name", t.Name); err != nil {
			return nil, err
		}
		if err := fileField("user", t.User); err != nil {
			return nil, err
		}
		if strings.HasPrefix(t.Name, "#") {
			return nil, fmt.Errorf("auth: token name %q starts a comment line", t.Name)
		}
		if t.Role < RoleReader || t.Role > RoleAdmin {
			return nil, fmt.Errorf("auth: token %q has unknown role %d", t.Name, int(t.Role))
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("auth: duplicate token name %q", t.Name)
		}
		seen[t.Name] = true
	}
	return &Authenticator{tokens: tokens}, nil
}

// maxFieldLen bounds a token's name and user, well inside the line length
// Parse's scanner reads.
const maxFieldLen = 256

// fileField refuses a name or user that a token-file line would not carry
// back unchanged: an empty one, one longer than maxFieldLen, one holding the
// field separator ':' or a control byte (a newline would start a line of its
// own), and one with surrounding white space, which Parse trims.
func fileField(what, v string) error {
	if v == "" || len(v) > maxFieldLen {
		return fmt.Errorf("auth: token %s must be 1 to %d bytes, got %d", what, maxFieldLen, len(v))
	}
	if strings.TrimSpace(v) != v || strings.ContainsFunc(v, func(r rune) bool { return r == ':' || r < 0x20 || r == 0x7f }) {
		return fmt.Errorf("auth: token %s %q has surrounding space, a ':' or a control byte", what, v)
	}
	return nil
}

// NewToken constructs a token from a raw secret (tests and tooling; the
// file loader goes straight from the stored digest).
func NewToken(name, user string, role Role, secret string) *Token {
	t := &Token{Name: name, User: user, Role: role}
	t.hash = sha256.Sum256([]byte(secret))
	return t
}

// Parse reads a token file (see the package comment for the format).
func Parse(data []byte) (*Authenticator, error) {
	var tokens []*Token
	sc := bufio.NewScanner(bytes.NewReader(data))
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ":")
		if len(fields) != 4 {
			return nil, fmt.Errorf("auth: line %d: want name:role:user:sha256hex, got %d fields", line, len(fields))
		}
		role, err := ParseRole(fields[1])
		if err != nil {
			return nil, fmt.Errorf("auth: line %d: %w", line, err)
		}
		digest, err := hex.DecodeString(strings.TrimSpace(fields[3]))
		if err != nil || len(digest) != sha256.Size {
			return nil, fmt.Errorf("auth: line %d: secret hash must be %d hex chars", line, sha256.Size*2)
		}
		t := &Token{Name: strings.TrimSpace(fields[0]), User: strings.TrimSpace(fields[2]), Role: role}
		copy(t.hash[:], digest)
		tokens = append(tokens, t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("auth: read token file: %w", err)
	}
	if len(tokens) == 0 {
		return nil, fmt.Errorf("auth: token file defines no tokens")
	}
	return New(tokens)
}

// LoadFile reads and parses a token file from disk.
func LoadFile(path string) (*Authenticator, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("auth: %w", err)
	}
	a, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("auth: %s: %w", path, err)
	}
	return a, nil
}

// Authenticate validates a presented secret. The scan is constant-time
// over the whole token set: every stored digest is compared with
// crypto/subtle regardless of earlier matches, so timing leaks neither
// existence nor prefix length of any token. A success bumps the matched
// token's use counter.
func (a *Authenticator) Authenticate(secret string) (*Token, bool) {
	sum := sha256.Sum256([]byte(secret))
	match := -1
	for i, t := range a.tokens {
		if subtle.ConstantTimeCompare(sum[:], t.hash[:]) == 1 {
			match = i
		}
	}
	if match < 0 {
		return nil, false
	}
	tok := a.tokens[match]
	tok.uses.Add(1)
	return tok, true
}

// Stats snapshots per-token metrics, sorted by token name.
func (a *Authenticator) Stats() []TokenStat {
	out := make([]TokenStat, 0, len(a.tokens))
	for _, t := range a.tokens {
		out = append(out, TokenStat{Name: t.Name, User: t.User, Role: t.Role.String(), Uses: t.Uses()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
