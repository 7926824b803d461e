// Package limit is the admission-control layer in front of the HTTP
// service: per-principal token buckets (rate limiting) plus per-principal
// and global in-flight concurrency caps (load shedding). It exists so
// one abusive or runaway principal cannot starve everyone else — the
// protection half of the ROADMAP's production-traffic-hardening item,
// complementing the observability half (internal/obs).
//
// Design constraints, mirroring internal/obs:
//
//  1. The warm admitted path must stay allocation-free: buckets live in
//     an RWMutex-guarded map keyed by principal, bucket state is a small
//     mutex-guarded float pair, and Allow returns a by-value Decision
//     whose Release method decrements the exact bucket it admitted —
//     no second lookup, no closure. The only allocation a principal
//     ever causes is its bucket, once.
//  2. Degradation is graceful and distinguishable. A rejected request
//     carries a Reason (rate vs concurrency) and a RetryAfter hint
//     (time until one token refills), so the transport can answer
//     429 + Retry-After for per-principal limits and 503 for global
//     overload — a client can tell "slow down" from "come back later".
//  3. Principal cardinality is an attack surface (header-auth dev mode
//     accepts arbitrary names), so the bucket map is bounded: past
//     MaxPrincipals the least-recently-used idle bucket is evicted.
//
// The package is transport- and auth-agnostic: callers pick the bucket
// key (token name, header principal) and the Rate (typically per role).
package limit

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Rate is one token-bucket budget: a sustained refill rate plus the
// bucket depth (the tolerated burst). The zero Rate is unlimited — a
// principal with no configured budget pays only the concurrency caps.
type Rate struct {
	// PerSec is the sustained refill rate in requests per second.
	// Zero or negative disables rate limiting for this call.
	PerSec float64
	// Burst is the bucket depth. Values below 1 are treated as 1: a
	// limited principal can always make at least one request.
	Burst float64
}

func (r Rate) limited() bool { return r.PerSec > 0 }

func (r Rate) burst() float64 {
	if r.Burst < 1 {
		return 1
	}
	return r.Burst
}

// Reason says why a Decision rejected.
type Reason uint8

const (
	// ReasonNone marks an admitted Decision.
	ReasonNone Reason = iota
	// ReasonRate: the principal's token bucket is empty.
	ReasonRate
	// ReasonConcurrency: the principal is already running its maximum
	// number of in-flight requests.
	ReasonConcurrency
)

func (r Reason) String() string {
	switch r {
	case ReasonRate:
		return "rate"
	case ReasonConcurrency:
		return "concurrency"
	default:
		return "none"
	}
}

// Decision is the outcome of one admission check. Admitted decisions
// hold the bucket they incremented; the caller MUST call Release exactly
// once when the request finishes. Rejected decisions carry the reason
// and a retry hint; Release on them is a no-op, so an unconditional
// deferred Release is safe.
type Decision struct {
	// OK reports whether the request was admitted.
	OK bool
	// Reason explains a rejection (ReasonNone when admitted).
	Reason Reason
	// RetryAfter estimates when retrying could succeed: the time until
	// one token refills for rate rejections, a nominal second for
	// concurrency rejections. Zero when admitted.
	RetryAfter time.Duration

	b *bucket
}

// Release returns the admitted request's in-flight slot. No-op for
// rejected decisions and the zero Decision.
func (d Decision) Release() {
	if d.b != nil {
		d.b.inflight.Add(-1)
	}
}

// Config bounds a Limiter. Zero values mean "unlimited" for the caps
// and "default" for the map bound.
type Config struct {
	// MaxInFlight caps requests admitted concurrently across all
	// principals (AcquireGlobal/ReleaseGlobal). 0 = unlimited.
	MaxInFlight int
	// MaxInFlightPerPrincipal caps one principal's concurrent requests.
	// 0 = unlimited.
	MaxInFlightPerPrincipal int
	// MaxPrincipals bounds the bucket map; past it the least-recently-
	// used idle bucket is evicted. 0 = DefaultMaxPrincipals.
	MaxPrincipals int
}

// DefaultMaxPrincipals is the bucket-map bound when Config leaves it 0.
const DefaultMaxPrincipals = 4096

// bucket is one principal's admission state. The mutex guards the
// token-bucket floats; counters are atomics so Release and Stats never
// take it.
type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time // zero until the first limited request seeds the bucket

	inflight atomic.Int64
	lastUsed atomic.Int64 // unix nanos, for LRU eviction

	allowed      atomic.Int64 //provlint:counter
	rejectedRate atomic.Int64 //provlint:counter
	rejectedConc atomic.Int64 //provlint:counter
}

// Limiter is the admission controller. Safe for arbitrary concurrency.
type Limiter struct {
	cfg Config
	now func() time.Time

	mu      sync.RWMutex
	buckets map[string]*bucket

	global atomic.Int64

	allowed     atomic.Int64 //provlint:counter
	rejRate     atomic.Int64 //provlint:counter
	rejConc     atomic.Int64 //provlint:counter
	rejOverload atomic.Int64 //provlint:counter
	evictions   atomic.Int64 //provlint:counter
}

// New builds a Limiter.
func New(cfg Config) *Limiter {
	if cfg.MaxPrincipals <= 0 {
		cfg.MaxPrincipals = DefaultMaxPrincipals
	}
	return &Limiter{cfg: cfg, now: time.Now, buckets: make(map[string]*bucket)}
}

// SetClock injects a clock for deterministic tests. Not safe to call
// concurrently with Allow.
//
//provlint:ignore unserved test support: limit and server tests drive the limiter on a fake clock (limit_test.go, limits_test.go)
func (l *Limiter) SetClock(now func() time.Time) { l.now = now }

// bucket returns key's bucket, creating (and possibly evicting) under
// the write lock on first sight. The warm path is one RLock map hit.
func (l *Limiter) bucket(key string) *bucket {
	l.mu.RLock()
	b := l.buckets[key]
	l.mu.RUnlock()
	if b != nil {
		return b
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if b = l.buckets[key]; b != nil {
		return b
	}
	if len(l.buckets) >= l.cfg.MaxPrincipals {
		l.evictLocked()
	}
	b = &bucket{}
	l.buckets[key] = b
	return b
}

// evictLocked drops the least-recently-used bucket with no requests in
// flight. When every bucket is busy the map grows past the bound — the
// global in-flight cap bounds that overshoot. A request that fetched a
// bucket pointer but has not yet incremented inflight can race an
// eviction; the orphan bucket still enforces its caps for that one
// request and is then garbage, so the race is benign.
func (l *Limiter) evictLocked() {
	var victimKey string
	var victim *bucket
	oldest := int64(math.MaxInt64)
	for k, b := range l.buckets {
		if b.inflight.Load() > 0 {
			continue
		}
		if lu := b.lastUsed.Load(); lu < oldest {
			oldest, victimKey, victim = lu, k, b
		}
	}
	if victim != nil {
		delete(l.buckets, victimKey)
		l.evictions.Add(1)
	}
}

// Allow runs one admission check for key under rate r: refill the
// bucket, reject if it is empty (ReasonRate) or the principal is at its
// concurrency cap (ReasonConcurrency), otherwise take a token and an
// in-flight slot. The caller must Release the returned Decision.
func (l *Limiter) Allow(key string, r Rate) Decision {
	b := l.bucket(key)
	now := l.now()
	b.lastUsed.Store(now.UnixNano())
	b.mu.Lock()
	if r.limited() {
		burst := r.burst()
		if b.last.IsZero() {
			// First limited request: a full bucket, so a new principal
			// gets its burst before the rate bites.
			b.tokens, b.last = burst, now
		} else if el := now.Sub(b.last); el > 0 {
			b.tokens = math.Min(burst, b.tokens+el.Seconds()*r.PerSec)
			b.last = now
		}
		if b.tokens < 1 {
			need := time.Duration((1 - b.tokens) / r.PerSec * float64(time.Second))
			b.mu.Unlock()
			b.rejectedRate.Add(1)
			l.rejRate.Add(1)
			return Decision{Reason: ReasonRate, RetryAfter: need}
		}
	}
	if cap := l.cfg.MaxInFlightPerPrincipal; cap > 0 && b.inflight.Load() >= int64(cap) {
		b.mu.Unlock()
		b.rejectedConc.Add(1)
		l.rejConc.Add(1)
		// The slot frees when an in-flight request finishes; one second
		// is a nominal, honest hint.
		return Decision{Reason: ReasonConcurrency, RetryAfter: time.Second}
	}
	if r.limited() {
		b.tokens--
	}
	b.inflight.Add(1)
	b.mu.Unlock()
	b.allowed.Add(1)
	l.allowed.Add(1)
	return Decision{OK: true, b: b}
}

// AcquireGlobal takes one slot of the global in-flight cap, reporting
// false (and counting an overload rejection) when the server is full.
// Admitted callers must ReleaseGlobal.
func (l *Limiter) AcquireGlobal() bool {
	n := l.global.Add(1)
	if max := l.cfg.MaxInFlight; max > 0 && n > int64(max) {
		l.global.Add(-1)
		l.rejOverload.Add(1)
		return false
	}
	return true
}

// ReleaseGlobal returns a slot taken by a successful AcquireGlobal.
func (l *Limiter) ReleaseGlobal() { l.global.Add(-1) }

// PrincipalStat is one principal's admission snapshot — including the
// live bucket state (tokens left, requests in flight), so /stats shows
// who is near their budget.
type PrincipalStat struct {
	Principal           string  `json:"principal"`
	TokensLeft          float64 `json:"tokens_left"`
	InFlight            int64   `json:"in_flight"`
	Allowed             int64   `json:"allowed"`
	RejectedRate        int64   `json:"rejected_rate"`
	RejectedConcurrency int64   `json:"rejected_concurrency"`
}

// Stats is the limiter's counter snapshot.
type Stats struct {
	Allowed             int64           `json:"allowed_total"`
	RejectedRate        int64           `json:"rejected_rate_total"`
	RejectedConcurrency int64           `json:"rejected_concurrency_total"`
	RejectedOverload    int64           `json:"rejected_overload_total"`
	Evictions           int64           `json:"bucket_evictions_total"`
	InFlight            int64           `json:"in_flight"`
	Principals          int             `json:"principals"`
	PerPrincipal        []PrincipalStat `json:"per_principal,omitempty"`
}

// Stats snapshots the limiter, per-principal rows sorted by name.
func (l *Limiter) Stats() Stats {
	st := Stats{
		Allowed:             l.allowed.Load(),
		RejectedRate:        l.rejRate.Load(),
		RejectedConcurrency: l.rejConc.Load(),
		RejectedOverload:    l.rejOverload.Load(),
		Evictions:           l.evictions.Load(),
		InFlight:            l.global.Load(),
	}
	l.mu.RLock()
	st.Principals = len(l.buckets)
	st.PerPrincipal = make([]PrincipalStat, 0, len(l.buckets))
	for k, b := range l.buckets {
		b.mu.Lock()
		tokens := b.tokens
		b.mu.Unlock()
		st.PerPrincipal = append(st.PerPrincipal, PrincipalStat{
			Principal:           k,
			TokensLeft:          tokens,
			InFlight:            b.inflight.Load(),
			Allowed:             b.allowed.Load(),
			RejectedRate:        b.rejectedRate.Load(),
			RejectedConcurrency: b.rejectedConc.Load(),
		})
	}
	l.mu.RUnlock()
	sort.Slice(st.PerPrincipal, func(i, j int) bool {
		return st.PerPrincipal[i].Principal < st.PerPrincipal[j].Principal
	})
	return st
}
