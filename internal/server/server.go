// Package server exposes the sharded provenance repository over HTTP —
// the multi-tenant serving surface the paper's vision implies: a shared
// repository "searched and queried by many users with different levels
// of access", and since the mutation endpoints landed, also written to
// over the wire. Every endpoint authenticates a repository principal
// and evaluates under that user's privacy level; privacy enforcement
// stays inside the engine, the transport only maps sentinel errors to
// status codes:
//
//	repo.ErrUnknownUser → 401
//	repo.ErrDenied      → 403
//	repo.ErrNotFound    → 404
//	repo.ErrExists      → 409
//	other request error → 400
//
// The transport itself adds the admission-control statuses (see
// Server.Handler and internal/limit): an oversized request body is cut
// off with 413; a principal past its rate or concurrency budget gets
// 429 with a Retry-After header (as does a full task queue) — back off
// and retry here; a draining or globally overloaded server sheds with
// 503 and no Retry-After — fail over to another node. Probes and
// /metrics bypass admission so an overloaded server stays observable.
//
// # Authentication
//
// Two schemes, chosen by server configuration:
//
//   - Bearer tokens (Server.Auth, from a token file — see internal/auth):
//     `Authorization: Bearer <secret>` resolves to a (repository user,
//     role) pair. Roles ladder reader < writer < admin; reads need
//     reader, mutations writer, save admin.
//   - Trusted headers (the PR 1 scheme): the X-Prov-User header or
//     ?user= parameter names the principal. Only honored when no token
//     file is configured (full trust, dev mode — the principal gets the
//     admin role). With a token file configured, header auth is
//     rejected.
//
// Endpoints (all JSON):
//
//	GET    /api/v1/specs                            registered specs + executions [reader]
//	GET    /api/v1/search?q=Q[&buckets=N][&limit=L&offset=O]  privacy-aware keyword search [reader]
//	GET    /api/v1/query?spec=S&q=Q[&exec=E][&zoom=1][&limit=L&offset=O]  structural query [reader]
//	GET    /api/v1/reach?spec=S&from=M1&to=M2       structural-privacy reachability [reader]
//	GET    /api/v1/provenance?spec=S&exec=E&item=D  taint-masked provenance [reader]
//	                                                (taint=off answers 403: no unmasked path is served)
//	GET    /api/v1/stats                            repository + cache statistics [reader]
//	POST   /api/v1/specs                            register a spec (+ optional policy) [writer]
//	POST   /api/v1/executions                       store an execution of a registered spec [writer]
//	DELETE /api/v1/specs/{id}                       unregister a spec and its executions [writer]
//	PUT    /api/v1/policy                           replace a spec's privacy policy [writer]
//	PUT    /api/v1/generalization                   install generalization ladders [writer]
//	POST   /api/v1/save                             persist the repository to the save dir [admin]
//	POST   /api/v1/executions:bulk                  async bulk ingest → 202 + task id [writer]
//	GET    /api/v1/tasks[?limit=L&offset=O]         list background tasks, newest first [writer]
//	GET    /api/v1/tasks/{id}                       one task's state/progress/result [writer]
//	DELETE /api/v1/tasks/{id}                       cancel a pending or running task [writer]
//	GET    /api/v1/tokens                           list tokens (name/user/role/uses — never secrets) [admin]
//	POST   /api/v1/tokens                           mint a token; generated secret echoed once [admin]
//	DELETE /api/v1/tokens/{name}                    revoke a token, effective immediately [admin]
//	GET    /api/v1/audit[?principal=P][&action=A][&limit=L]  recent mutation audit records [admin]
//	GET    /metrics                                 Prometheus-style counters (no auth)
//
// The task endpoints serve 503 unless the operator configured a task
// runtime (Server.Tasks; provserve always does). Bulk ingest runs on
// that pool and returns 202 Accepted plus a task id; callers poll
// GET /api/v1/tasks/{id} (the Location header points there) and may
// DELETE to cancel. Long synchronous reads (search, query,
// provenance) honor request-context cancellation: a caller that hangs
// up stops paying for fan-out it will never read.
//
// Search and query responses are paginated with limit/offset (limit 0 =
// unlimited); the pre-pagination result count is returned as "total" so
// clients can page without a second query. Pagination is pushed into
// the engine (repo.SearchPageCtx / repo.QueryAllPageCtx): out-of-window hits
// are counted, never materialized.
package server

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"provpriv/internal/auditlog"
	"provpriv/internal/auth"
	"provpriv/internal/datapriv"
	"provpriv/internal/exec"
	"provpriv/internal/jsonw"
	"provpriv/internal/limit"
	"provpriv/internal/obs"
	"provpriv/internal/privacy"
	"provpriv/internal/query"
	"provpriv/internal/repo"
	"provpriv/internal/storage"
	"provpriv/internal/tasks"
	"provpriv/internal/workflow"
)

// maxBodyBytes bounds mutation request bodies (a workflow spec or an
// execution trace; generous, but not a DoS vector). A variable so tests
// can lower it to exercise the 413 path without megabyte payloads.
var maxBodyBytes int64 = 8 << 20

// Server serves a Repository over HTTP. It is stateless apart from the
// repository and two counters: handlers are safe for arbitrary
// concurrency because the engine is.
type Server struct {
	repo *repo.Repository
	mux  *http.ServeMux
	// Logger, when non-nil, receives one structured record per failed
	// request (and server-side write errors). Nil logs nothing.
	Logger *slog.Logger
	// Obs, when non-nil, is the observability layer Handler() wraps the
	// mux in: request ids, per-route latency histograms, sampled traces
	// and panic recovery. Its metrics and traces are served by /metrics
	// and /api/v1/debug/traces. Nil leaves the server bare (tests).
	Obs *obs.Observer
	// EnablePprof exposes /debug/pprof/ (admin role). Off by default:
	// profiles leak memory contents and symbol names, so an operator
	// must opt in (provserve -pprof).
	EnablePprof bool
	// RequireStorage makes /readyz require a bound storage backend —
	// set by servers that persist (provserve always does); in-memory
	// servers stay ready without one.
	RequireStorage bool
	// draining flips when the operator starts shutdown; /readyz reports
	// 503 so load balancers stop routing while in-flight work finishes.
	draining atomic.Bool
	// Auth, when non-nil, enables bearer-token authentication and makes
	// it the only accepted scheme.
	// When nil, the server runs in the PR 1 trusted-header mode: any
	// registered principal named by X-Prov-User is fully trusted (role
	// admin) — acceptable on a private network, never on a shared one.
	// The Store is hot-swappable: rotating the token file (SIGHUP or
	// mtime poll in provserve) or the /api/v1/tokens endpoints take
	// effect on the next request, without a restart.
	Auth *auth.Store
	// Limiter, when non-nil, is the admission controller: per-principal
	// token buckets (rate per role, see Rates) checked after
	// authentication, plus the global in-flight cap applied by the
	// admission middleware in Handler(). Per-principal rejections are
	// 429 + Retry-After; global overload and draining are 503, so
	// clients can tell "you specifically, slow down" from "everyone,
	// come back later". Nil admits everything.
	Limiter *limit.Limiter
	// Rates maps each authenticated role to its token-bucket budget.
	// Zero rates are unlimited.
	Rates RoleRates
	// Audit, when non-nil, receives exactly one durable record per
	// mutation-endpoint request (including denied ones): who, what,
	// when, outcome, threaded with the obs request id. Queryable via
	// GET /api/v1/audit (admin). Nil disables auditing.
	Audit *auditlog.Log
	// SaveDir is the directory POST /api/v1/save persists to. Empty
	// disables the endpoint (400): the save target is operator
	// configuration, never caller input — a wire-supplied path would be
	// an arbitrary-file-write primitive.
	SaveDir string
	// Store, when non-nil, is the measured storage backend the repository
	// persists through; its counters are exported via /stats and /metrics
	// so operators can watch append/replay/checkpoint traffic and storage
	// errors per process.
	Store *storage.Measure
	// Tasks, when non-nil, is the background task runtime behind the
	// async surface (bulk ingest, the /api/v1/tasks endpoints). The
	// operator owns its lifecycle: size the pool, set it here before
	// serving, drain it on shutdown. Nil leaves the async
	// endpoints serving 503.
	Tasks *tasks.Runtime

	// mutations counts successful mutation-endpoint requests;
	// authFailures counts rejected authentications and authorization
	// denials (both exported via /metrics and /stats).
	mutations    atomic.Int64 //provlint:counter
	authFailures atomic.Int64 //provlint:counter
	// shedDraining counts requests refused with 503 because the server
	// was draining; auditErrors counts mutations whose audit append
	// failed (the mutation itself still completed — see audited).
	shedDraining atomic.Int64 //provlint:counter
	auditErrors  atomic.Int64 //provlint:counter
}

// New wraps a repository in an HTTP API.
func New(r *repo.Repository) *Server {
	s := &Server{repo: r, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /api/v1/specs", s.withRole(auth.RoleReader, s.handleSpecs))
	s.mux.HandleFunc("GET /api/v1/search", s.withRole(auth.RoleReader, s.handleSearch))
	s.mux.HandleFunc("GET /api/v1/query", s.withRole(auth.RoleReader, s.handleQuery))
	s.mux.HandleFunc("GET /api/v1/reach", s.withRole(auth.RoleReader, s.handleReach))
	s.mux.HandleFunc("GET /api/v1/provenance", s.withRole(auth.RoleReader, s.handleProvenance))
	s.mux.HandleFunc("GET /api/v1/stats", s.withRole(auth.RoleReader, s.handleStats))
	// The mutation surface: every engine mutator, behind writer (or
	// admin, for save) role authz. Each mutation route is additionally
	// wrapped in audited(): exactly one durable audit record per
	// request, including denied ones (a probe of the write surface is
	// itself worth recording).
	s.mux.HandleFunc("POST /api/v1/specs", s.audited("spec.add", s.withRole(auth.RoleWriter, s.handleAddSpec)))
	s.mux.HandleFunc("POST /api/v1/executions", s.audited("exec.add", s.withRole(auth.RoleWriter, s.handleAddExecution)))
	s.mux.HandleFunc("DELETE /api/v1/specs/{id}", s.audited("spec.remove", s.withRole(auth.RoleWriter, s.handleRemoveSpec)))
	s.mux.HandleFunc("PUT /api/v1/policy", s.audited("policy.update", s.withRole(auth.RoleWriter, s.handleUpdatePolicy)))
	s.mux.HandleFunc("PUT /api/v1/generalization", s.audited("generalization.set", s.withRole(auth.RoleWriter, s.handleSetGeneralization)))
	s.mux.HandleFunc("POST /api/v1/save", s.audited("repo.save", s.withRole(auth.RoleAdmin, s.handleSave)))
	// The async surface: bulk ingest and task introspection need writer
	// (tasks expose mutation progress and accept cancellation).
	s.mux.HandleFunc("POST /api/v1/executions:bulk", s.audited("exec.bulk", s.withRole(auth.RoleWriter, s.handleBulkExecutions)))
	s.mux.HandleFunc("GET /api/v1/tasks", s.withRole(auth.RoleWriter, s.handleListTasks))
	s.mux.HandleFunc("GET /api/v1/tasks/{id}", s.withRole(auth.RoleWriter, s.handleGetTask))
	s.mux.HandleFunc("DELETE /api/v1/tasks/{id}", s.audited("task.cancel", s.withRole(auth.RoleWriter, s.handleCancelTask)))
	// Token lifecycle: list/mint/revoke bearer tokens at runtime, admin
	// only. Mutations are audited like any other; the audit log itself
	// is queryable (admin) so "who rotated what" has an answer.
	s.mux.HandleFunc("GET /api/v1/tokens", s.withRole(auth.RoleAdmin, s.handleListTokens))
	s.mux.HandleFunc("POST /api/v1/tokens", s.audited("token.add", s.withRole(auth.RoleAdmin, s.handleAddToken)))
	s.mux.HandleFunc("DELETE /api/v1/tokens/{name}", s.audited("token.remove", s.withRole(auth.RoleAdmin, s.handleRemoveToken)))
	s.mux.HandleFunc("GET /api/v1/audit", s.withRole(auth.RoleAdmin, s.handleAudit))
	// Metrics are operational, not user data: no principal required, so
	// scrapers don't need a repository account.
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Probes: liveness is unconditional; readiness reflects storage
	// binding and drain state. No auth — orchestrators don't hold tokens.
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	// Introspection: recent traces and profiles expose request patterns
	// and process memory, so both are admin-only; pprof additionally
	// needs the operator opt-in (EnablePprof).
	s.mux.HandleFunc("GET /api/v1/debug/traces", s.withRole(auth.RoleAdmin, s.handleDebugTraces))
	s.mux.HandleFunc("/debug/pprof/", s.withRole(auth.RoleAdmin, s.handlePprof))
	return s
}

// ServeHTTP implements http.Handler, serving the bare mux. Production
// callers serve Handler() instead to get the observability middleware.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Handler returns the production middleware stack around the mux:
// observability outermost (so shed responses still get request ids and
// show up in route histograms), then admission (drain shedding + the
// global in-flight cap), then the routes. With no Observer the
// admission layer still applies; tests that serve the Server directly
// bypass both.
func (s *Server) Handler() http.Handler {
	h := s.admission(s)
	if s.Obs == nil {
		return h
	}
	return obs.Chain(h, s.Obs.Middleware)
}

// admission is the transport-level shed point, ahead of routing and
// authentication: a draining server refuses new work with 503 so load
// balancers fail over, and the limiter's global in-flight cap bounds
// total concurrency regardless of who is asking. Per-principal limits
// are enforced later, in withRole, where identity is known. Probes and
// metrics are exempt — orchestrators and scrapers must see a draining
// server, that is the point of draining.
func (s *Server) admission(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/readyz", "/metrics":
			next.ServeHTTP(w, r)
			return
		}
		if s.draining.Load() {
			s.shedDraining.Add(1)
			// No Retry-After: this process is going away, not busy — a
			// client should fail over, not wait it out.
			s.writeJSON(w, http.StatusServiceUnavailable,
				errorBody{Error: "server: draining", RequestID: obs.RequestID(w)})
			return
		}
		if s.Limiter != nil {
			if !s.Limiter.AcquireGlobal() {
				s.writeJSON(w, http.StatusServiceUnavailable,
					errorBody{Error: "server: overloaded, too many requests in flight", RequestID: obs.RequestID(w)})
				return
			}
			defer s.Limiter.ReleaseGlobal()
		}
		next.ServeHTTP(w, r)
	})
}

// SetDraining flips the readiness signal: a draining server answers
// /readyz with 503 so load balancers stop routing new work while
// in-flight requests and background tasks finish.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// log returns the configured logger or a discard logger, so logging
// call sites never nil-check.
func (s *Server) log() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return obs.Discard
}

// errorBody is the uniform failure envelope. RequestID is filled when
// the request came through the observability middleware, so users can
// quote the id that server logs and traces are keyed by.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	var err error
	if body, ok := v.(*[]byte); ok { // already JSON, from bodies
		_, err = w.Write(*body)
	} else {
		err = json.NewEncoder(w).Encode(v)
	}
	if err != nil {
		s.log().Error("encode response", "error", err)
	}
}

// bodies pools the buffers the /search, /query and /provenance answers are
// appended into.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// fail maps an engine error to a protocol status via the repo sentinel
// errors and writes the envelope.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusBadRequest
	var maxBytes *http.MaxBytesError
	switch {
	case errors.Is(err, repo.ErrUnknownUser):
		status = http.StatusUnauthorized
	case errors.Is(err, repo.ErrDenied):
		status = http.StatusForbidden
	case errors.Is(err, repo.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, repo.ErrExists):
		status = http.StatusConflict
	case errors.As(err, &maxBytes):
		// An oversized body is the client's request being too large, not
		// malformed: 413, so clients distinguish "split your payload"
		// from "fix your JSON". Decoders wrap with %w to keep the
		// MaxBytesError reachable here.
		status = http.StatusRequestEntityTooLarge
	}
	if s.Logger != nil {
		obs.RequestLogger(s.Logger, w, r).Warn("request failed", "status", status, "error", err)
	}
	s.writeJSON(w, status, errorBody{Error: err.Error(), RequestID: obs.RequestID(w)})
}

// userHandler is a handler that has already resolved its principal.
type userHandler func(w http.ResponseWriter, r *http.Request, user string)

// RoleRates maps authenticated roles to their token-bucket budgets
// (zero = unlimited for that role).
type RoleRates struct {
	Reader limit.Rate
	Writer limit.Rate
	Admin  limit.Rate
}

// rateFor picks the budget for a role.
func (s *Server) rateFor(role auth.Role) limit.Rate {
	switch role {
	case auth.RoleAdmin:
		return s.Rates.Admin
	case auth.RoleWriter:
		return s.Rates.Writer
	default:
		return s.Rates.Reader
	}
}

// creds is principal()'s result: the resolved identity plus the
// rate-limit bucket key. Returned by value — no allocation.
type creds struct {
	user string
	role auth.Role
	// key buckets rate limiting: the token's name for bearer auth (two
	// tokens sharing a repository user are budgeted separately), the
	// principal's name for header auth. Raw, not prefixed — prefixing
	// would cost an allocation per request; the only consequence is
	// that in mixed bearer+header-bridge mode a token named like a
	// principal shares that principal's bucket, which is benign.
	key string
	// token is the bearer token's name, "" for header auth (audit).
	token     string
	fromQuery bool
}

// principal resolves the request's identity from the configured
// authentication scheme(s); c.fromQuery reports that the principal came
// from the bare ?user= URL parameter. See the package comment for the
// scheme matrix.
func (s *Server) principal(r *http.Request) (c creds, err error) {
	if authz := r.Header.Get("Authorization"); authz != "" {
		// RFC 7235 auth-scheme names are case-insensitive ("bearer" must
		// work); the secret itself is untouched.
		scheme, secret, ok := strings.Cut(authz, " ")
		if !ok || !strings.EqualFold(scheme, "Bearer") {
			return c, fmt.Errorf("server: unsupported Authorization scheme: %w", repo.ErrUnknownUser)
		}
		if s.Auth == nil {
			return c, fmt.Errorf("server: token auth not configured: %w", repo.ErrUnknownUser)
		}
		tok, ok := s.Auth.Authenticate(secret)
		if !ok {
			return c, fmt.Errorf("server: invalid token: %w", repo.ErrUnknownUser)
		}
		return creds{user: tok.User, role: tok.Role, key: tok.Name, token: tok.Name}, nil
	}
	// Header scheme: trusted (admin role), and only without a token file.
	if s.Auth != nil {
		return c, fmt.Errorf("server: bearer token required: %w", repo.ErrUnknownUser)
	}
	name := r.Header.Get("X-Prov-User")
	fromQuery := false
	if name == "" {
		name = r.URL.Query().Get("user")
		fromQuery = name != ""
	}
	if name == "" {
		return c, fmt.Errorf("server: missing credentials (Authorization or X-Prov-User): %w", repo.ErrUnknownUser)
	}
	return creds{user: name, role: auth.RoleAdmin, key: name, fromQuery: fromQuery}, nil
}

// limited writes the per-principal 429 with the Retry-After hint —
// "you specifically, slow down", as opposed to the admission layer's
// 503 "everyone, come back later".
func (s *Server) limited(w http.ResponseWriter, r *http.Request, d limit.Decision) {
	secs := int(math.Ceil(d.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.writeJSON(w, http.StatusTooManyRequests, errorBody{
		Error:     "server: rate limit exceeded (" + d.Reason.String() + ")",
		RequestID: obs.RequestID(w),
	})
}

// withRole authenticates the request principal and enforces the
// endpoint's minimum role, then the principal's admission budget. The
// user must be registered in the repository; endpoints pass the name
// down so the engine re-checks the privacy level on every operation
// (no privilege caching in the transport). Authentication rejections
// and role denials feed the auth_failures_total counter.
func (s *Server) withRole(min auth.Role, h userHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c, err := s.principal(r)
		if err != nil {
			s.authFailures.Add(1)
			s.fail(w, r, err)
			return
		}
		if c.fromQuery && min > auth.RoleReader {
			// The bare ?user= parameter is a curl convenience for reads.
			// A browser can forge it in a cross-site "simple request"
			// (no preflight), so in dev mode it would make the write
			// surface CSRF-reachable; custom headers and Authorization
			// are not forgeable that way. Mutations therefore require
			// header-borne credentials.
			s.authFailures.Add(1)
			s.fail(w, r, fmt.Errorf("server: mutations require header credentials, not the user parameter: %w", repo.ErrUnknownUser))
			return
		}
		if !c.role.Allows(min) {
			s.authFailures.Add(1)
			s.setAuditIdentity(w, c)
			s.fail(w, r, fmt.Errorf("server: role %s may not use this endpoint (need %s): %w",
				c.role, min, repo.ErrDenied))
			return
		}
		if _, err := s.repo.User(c.user); err != nil {
			s.authFailures.Add(1)
			s.fail(w, r, err)
			return
		}
		// Per-principal admission, after authentication so the bucket
		// key is a verified identity (pre-auth flood damage is bounded
		// by the global cap). The Decision is a value and Release is a
		// method on it, so the admitted path allocates nothing.
		if s.Limiter != nil {
			d := s.Limiter.Allow(c.key, s.rateFor(c.role))
			if !d.OK {
				s.setAuditIdentity(w, c)
				s.limited(w, r, d)
				return
			}
			defer d.Release()
		}
		// Stamp the principal on the recorder for completion logs (and
		// the audit writer, when this is a mutation), and — only when
		// this request was sampled for tracing — open the handler span.
		// StartSpan without a trace is free, so the unsampled path pays
		// nothing here.
		obs.SetPrincipal(w, c.user)
		s.setAuditIdentity(w, c)
		if ctx, span := obs.StartSpan(r.Context(), "handler"); span.Active() {
			defer span.End()
			r = r.WithContext(ctx)
		}
		h(w, r, c.user)
	}
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: ready means the server is not
// draining, the task runtime (when configured) is accepting work, and —
// for persisting servers — a storage backend is bound.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if s.draining.Load() {
		reasons = append(reasons, "server draining")
	}
	if s.Tasks != nil && s.Tasks.Draining() {
		reasons = append(reasons, "task runtime draining")
	}
	if s.RequireStorage && !s.repo.StorageBound() {
		reasons = append(reasons, "storage not bound")
	}
	if len(reasons) > 0 {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "not ready", "reasons": reasons,
		})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleDebugTraces serves the tracer's ring of recent traces as span
// trees, newest first. With no tracer configured the list is empty
// rather than an error, so dashboards can probe unconditionally.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request, user string) {
	traces := []obs.TraceView{}
	var slow any
	if s.Obs != nil && s.Obs.Tracer != nil {
		traces = s.Obs.Tracer.Recent()
		slow = s.Obs.Tracer.SlowThreshold().String()
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"slow_threshold": slow, "traces": traces,
	})
}

// handlePprof dispatches the /debug/pprof/ subtree to net/http/pprof —
// behind admin auth (withRole) and the operator's EnablePprof opt-in.
// Disabled servers 404 so the surface is indistinguishable from absent.
func (s *Server) handlePprof(w http.ResponseWriter, r *http.Request, user string) {
	if !s.EnablePprof {
		//provlint:ignore envelope must byte-match the mux's default 404 so a disabled pprof surface is indistinguishable from absent
		http.NotFound(w, r)
		return
	}
	switch strings.TrimPrefix(r.URL.Path, "/debug/pprof/") {
	case "cmdline":
		pprof.Cmdline(w, r)
	case "profile":
		pprof.Profile(w, r)
	case "symbol":
		pprof.Symbol(w, r)
	case "trace":
		pprof.Trace(w, r)
	default:
		pprof.Index(w, r)
	}
}

// specInfo is one row of the /specs listing.
type specInfo struct {
	ID         string   `json:"id"`
	Name       string   `json:"name,omitempty"`
	Executions []string `json:"executions"`
}

func (s *Server) handleSpecs(w http.ResponseWriter, r *http.Request, user string) {
	ids := s.repo.SpecIDs()
	out := make([]specInfo, 0, len(ids))
	for _, id := range ids {
		sp := s.repo.Spec(id)
		if sp == nil {
			continue
		}
		execs := s.repo.ExecutionIDs(id)
		if execs == nil {
			execs = []string{}
		}
		out = append(out, specInfo{ID: id, Name: sp.Name, Executions: execs})
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"specs": out})
}

// parsePage extracts limit/offset pagination parameters (both optional,
// both non-negative; limit 0 means unlimited) from a handler's parsed
// query string.
func parsePage(p url.Values) (limit, offset int, err error) {
	for _, f := range []struct {
		name string
		dst  *int
	}{{"limit", &limit}, {"offset", &offset}} {
		v := p.Get(f.name)
		if v == "" {
			continue
		}
		n, aerr := strconv.Atoi(v)
		if aerr != nil || n < 0 {
			return 0, 0, fmt.Errorf("server: bad %s %q", f.name, v)
		}
		*f.dst = n
	}
	return limit, offset, nil
}

// page windows a slice to [offset, offset+limit) (limit 0 = to the end),
// returning the window and the pre-pagination total.
func page[T any](items []T, limit, offset int) ([]T, int) {
	total := len(items)
	if offset >= total {
		return items[:0], total
	}
	items = items[offset:]
	if limit > 0 && limit < len(items) {
		items = items[:limit]
	}
	return items, total
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request, user string) {
	p := r.URL.Query()
	q := p.Get("q")
	buckets := 0
	if b := p.Get("buckets"); b != "" {
		n, err := strconv.Atoi(b)
		if err != nil || n < 0 {
			s.fail(w, r, fmt.Errorf("server: bad buckets %q", b))
			return
		}
		buckets = n
	}
	limit, offset, err := parsePage(p)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	// Pagination is pushed into the engine: SearchPageCtx takes the full
	// result set and its count from the inverted index and materializes
	// minimal views only for this window. The request context rides along
	// so a hung-up client stops the view pass.
	hits, total, err := s.repo.SearchPageCtx(r.Context(), user, q, repo.SearchOptions{
		Buckets: buckets, Limit: limit, Offset: offset,
	})
	if err != nil {
		s.fail(w, r, err)
		return
	}
	body := bodies.Get().(*[]byte)
	*body = appendSearchPage((*body)[:0], hits, offset, q, total)
	s.writeJSON(w, http.StatusOK, body)
	bodies.Put(body)
}

// appendSearchPage appends the /search body for a window of hits: the
// bytes json.Encoder wrote for the envelope this replaced, fields in key
// order and a trailing newline (TestAppendedPagesEncodeAsTheirStructsDid).
func appendSearchPage(b []byte, hits []repo.SearchHit, offset int, q string, total int) []byte {
	b = append(b, `{"hits":[`...)
	for i, h := range hits {
		if i > 0 {
			b = append(b, ',')
		}
		b = h.Result.AppendJSON(b, h.SpecID, h.Score)
	}
	return appendPageTail(append(b, ']'), offset, "query", q, total)
}

// appendQueryPage is appendSearchPage for a /query window of answers,
// zoomSteps the zoom-out's step count (0 off that path).
func appendQueryPage(b []byte, answers []*query.Answer, zoomSteps, offset int, specID string, total int) []byte {
	b = append(b, `{"answers":[`...)
	for i, a := range answers {
		if i > 0 {
			b = append(b, ',')
		}
		b = a.AppendJSON(b, zoomSteps)
	}
	return appendPageTail(append(b, ']'), offset, "spec", specID, total)
}

// appendPageTail closes a page after its list: the window's offset, the
// field named key (the query, or the spec) and the total.
func appendPageTail(b []byte, offset int, key, val string, total int) []byte {
	b = append(b, `,"offset":`...)
	b = strconv.AppendInt(b, int64(offset), 10)
	b = append(b, `,"`...)
	b = append(b, key...)
	b = append(b, `":`...)
	b = jsonw.AppendString(b, val)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(total), 10)
	return append(b, "}\n"...)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, user string) {
	p := r.URL.Query()
	specID, execID, q := p.Get("spec"), p.Get("exec"), p.Get("q")
	if specID == "" || q == "" {
		s.fail(w, r, fmt.Errorf("server: query needs spec and q parameters"))
		return
	}
	limit, offset, err := parsePage(p)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	zoom, err := strconv.ParseBool(cmp.Or(p.Get("zoom"), "false"))
	if err != nil || zoom && execID == "" {
		s.fail(w, r, fmt.Errorf("server: bad zoom %q (want a boolean, and true only with an exec parameter)", p.Get("zoom")))
		return
	}
	var answers []*query.Answer
	total, steps := 0, 0
	switch {
	case execID == "":
		// All executions of the spec (non-empty answers only), with the
		// window pushed into the engine: out-of-window answers are
		// match-counted but their return clauses never materialize.
		answers, total, err = s.repo.QueryAllPageCtx(r.Context(), user, specID, q, limit, offset)
	case zoom:
		var res *query.ZoomOutResult
		if res, err = s.repo.QueryZoomOut(user, specID, execID, q); err == nil {
			answers, total = page([]*query.Answer{res.Answer}, limit, offset)
			steps = res.Steps
		}
	default:
		var a *query.Answer
		if a, err = s.repo.Query(user, specID, execID, q); err == nil {
			answers, total = page([]*query.Answer{a}, limit, offset)
		}
	}
	if err != nil {
		s.fail(w, r, err)
		return
	}
	body := bodies.Get().(*[]byte)
	*body = appendQueryPage((*body)[:0], answers, steps, offset, specID, total)
	s.writeJSON(w, http.StatusOK, body)
	bodies.Put(body)
}

func (s *Server) handleReach(w http.ResponseWriter, r *http.Request, user string) {
	p := r.URL.Query()
	specID, from, to := p.Get("spec"), p.Get("from"), p.Get("to")
	if specID == "" || from == "" || to == "" {
		s.fail(w, r, fmt.Errorf("server: reach needs spec, from and to parameters"))
		return
	}
	ok, err := s.repo.Reaches(user, specID, from, to)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"spec": specID, "from": from, "to": to, "reaches": ok,
	})
}

func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request, user string) {
	p := r.URL.Query()
	specID, execID, item := p.Get("spec"), p.Get("exec"), p.Get("item")
	if specID == "" || execID == "" || item == "" {
		s.fail(w, r, fmt.Errorf("server: provenance needs spec, exec and item parameters"))
		return
	}
	switch t := p.Get("taint"); t {
	case "", "on":
		// taint-aware masking: the only mode there is.
	case "off":
		// No unmasked path is served; refused rather than silently served
		// taint-on, so a debugging session can't mistake masked output for raw.
		s.fail(w, r, fmt.Errorf("server: taint=off is not served: %w", repo.ErrDenied))
		return
	default:
		s.fail(w, r, fmt.Errorf("server: bad taint %q (want on or off)", t))
		return
	}
	prov, err := s.repo.ProvenanceWithCtx(r.Context(), user, specID, execID, item, repo.ProvenanceOptions{})
	if err != nil {
		s.fail(w, r, err)
		return
	}
	// The provenance is already collapsed and masked for this user's level
	// by the engine; it is written from its plan's pre-encoded structure,
	// in the persistence JSON shape.
	body := bodies.Get().(*[]byte)
	*body = prov.AppendJSON((*body)[:0], specID, execID)
	s.writeJSON(w, http.StatusOK, body)
	bodies.Put(body)
}

// maxBodyPresize bounds what readBody allocates up front from a request's
// Content-Length: a body claiming more still grows as it arrives, so a
// header cannot make the server reserve memory the client never sends.
const maxBodyPresize = 64 << 10

// readBody reads a mutation request body with the size cap applied, into
// a buffer sized from Content-Length with room to read the end without
// growing it.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(int(min(max(r.ContentLength, 0), maxBodyPresize)) + bytes.MinRead)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		// %w: a *http.MaxBytesError inside must stay reachable for
		// fail()'s 413 mapping.
		return nil, fmt.Errorf("server: read request body: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeJSON strictly decodes a mutation request body into dst: size-
// capped, unknown fields rejected (a typo'd "plicy" key must be a 400,
// not a silent policy reset to all-public), and trailing garbage after
// the JSON value is rejected (a concatenated second value is a
// malformed request, not an extra).
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		// %w: a *http.MaxBytesError inside must stay reachable for
		// fail()'s 413 mapping.
		return fmt.Errorf("server: bad request body: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return fmt.Errorf("server: trailing data after JSON body")
	}
	return nil
}

// strictUnmarshal is decodeJSON's strictness (unknown fields and
// trailing garbage rejected) for the nested spec object, where a typo'd
// field name must be a 400, not a silently empty slice.
func strictUnmarshal(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("server: bad request body: %v", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return fmt.Errorf("server: trailing data after JSON body")
	}
	return nil
}

// mutated records a successful mutation and writes the response.
func (s *Server) mutated(w http.ResponseWriter, status int, v any) {
	s.mutations.Add(1)
	s.writeJSON(w, status, v)
}

// specRequest is the POST /api/v1/specs body: the spec itself (the
// persistence JSON shape) plus an optional policy. A nil policy means
// all-public, exactly like repo.AddSpec.
type specRequest struct {
	Spec   json.RawMessage `json:"spec"`
	Policy *privacy.Policy `json:"policy,omitempty"`
}

func (s *Server) handleAddSpec(w http.ResponseWriter, r *http.Request, user string) {
	var req specRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.fail(w, r, err)
		return
	}
	if len(req.Spec) == 0 {
		s.fail(w, r, fmt.Errorf("server: spec request needs a spec object"))
		return
	}
	spec := &workflow.Spec{}
	if err := strictUnmarshal(req.Spec, spec); err != nil {
		s.fail(w, r, err)
		return
	}
	if spec.ID == "" {
		s.fail(w, r, fmt.Errorf("server: spec needs a non-empty id"))
		return
	}
	setAuditTarget(w, spec.ID)
	if req.Policy != nil && req.Policy.SpecID != "" && req.Policy.SpecID != spec.ID {
		s.fail(w, r, fmt.Errorf("server: policy is for spec %q, not %q", req.Policy.SpecID, spec.ID))
		return
	}
	if req.Policy != nil {
		req.Policy.SpecID = spec.ID
	}
	if err := s.repo.AddSpec(spec, req.Policy); err != nil {
		s.fail(w, r, err)
		return
	}
	s.mutated(w, http.StatusCreated, map[string]any{"spec": spec.ID})
}

// handleAddExecution accepts the execution object itself as the body
// (the same JSON shape repo.Save persists), validates it and stores it
// under its spec's shard. The execution is searchable and queryable the
// moment the 201 is written — the engine's indexes are maintained
// incrementally, there is no refresh step.
func (s *Server) handleAddExecution(w http.ResponseWriter, r *http.Request, user string) {
	data, err := readBody(w, r)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	e, err := exec.DecodeExecution(data)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	if e.ID == "" || e.SpecID == "" {
		s.fail(w, r, fmt.Errorf("server: execution needs non-empty id and spec"))
		return
	}
	setAuditTarget(w, e.ID)
	if err := s.repo.AddExecution(e); err != nil {
		s.fail(w, r, err)
		return
	}
	s.mutated(w, http.StatusCreated, map[string]any{"spec": e.SpecID, "exec": e.ID})
}

func (s *Server) handleRemoveSpec(w http.ResponseWriter, r *http.Request, user string) {
	id := r.PathValue("id")
	setAuditTarget(w, id)
	if err := s.repo.RemoveSpec(id); err != nil {
		s.fail(w, r, err)
		return
	}
	s.mutated(w, http.StatusOK, map[string]any{"removed": id})
}

// policyRequest is the PUT /api/v1/policy body. A nil policy resets the
// spec to all-public (repo.UpdatePolicy semantics).
type policyRequest struct {
	Spec   string          `json:"spec"`
	Policy *privacy.Policy `json:"policy,omitempty"`
}

func (s *Server) handleUpdatePolicy(w http.ResponseWriter, r *http.Request, user string) {
	var req policyRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.fail(w, r, err)
		return
	}
	if req.Spec == "" {
		s.fail(w, r, fmt.Errorf("server: policy request needs a spec id"))
		return
	}
	setAuditTarget(w, req.Spec)
	if req.Policy != nil && req.Policy.SpecID != "" && req.Policy.SpecID != req.Spec {
		s.fail(w, r, fmt.Errorf("server: policy is for spec %q, not %q", req.Policy.SpecID, req.Spec))
		return
	}
	if req.Policy != nil {
		req.Policy.SpecID = req.Spec
	}
	if err := s.repo.UpdatePolicy(req.Spec, req.Policy); err != nil {
		s.fail(w, r, err)
		return
	}
	s.mutated(w, http.StatusOK, map[string]any{"spec": req.Spec})
}

// generalizationRequest is the PUT /api/v1/generalization body: per-
// attribute generalization ladders (see datapriv.Hierarchy). A nil map
// removes all ladders (back to redaction-only masking).
type generalizationRequest struct {
	Spec        string                         `json:"spec"`
	Hierarchies map[string]*datapriv.Hierarchy `json:"hierarchies,omitempty"`
}

func (s *Server) handleSetGeneralization(w http.ResponseWriter, r *http.Request, user string) {
	var req generalizationRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.fail(w, r, err)
		return
	}
	if req.Spec == "" {
		s.fail(w, r, fmt.Errorf("server: generalization request needs a spec id"))
		return
	}
	setAuditTarget(w, req.Spec)
	for attr, h := range req.Hierarchies {
		if h == nil {
			s.fail(w, r, fmt.Errorf("server: nil hierarchy for attribute %q", attr))
			return
		}
		// The map key is authoritative; fill or check the embedded name.
		if h.Attr == "" {
			h.Attr = attr
		} else if h.Attr != attr {
			s.fail(w, r, fmt.Errorf("server: hierarchy under key %q names attribute %q", attr, h.Attr))
			return
		}
	}
	if err := s.repo.SetGeneralization(req.Spec, req.Hierarchies); err != nil {
		s.fail(w, r, err)
		return
	}
	s.mutated(w, http.StatusOK, map[string]any{"spec": req.Spec})
}

// handleSave persists the repository to the operator-configured save
// directory. The target is never caller input; with no SaveDir the
// endpoint is disabled.
func (s *Server) handleSave(w http.ResponseWriter, r *http.Request, user string) {
	if s.SaveDir == "" {
		s.fail(w, r, fmt.Errorf("server: no save directory configured"))
		return
	}
	setAuditTarget(w, s.SaveDir)
	if err := s.repo.SaveCtx(r.Context(), s.SaveDir); err != nil {
		s.fail(w, r, err)
		return
	}
	s.mutated(w, http.StatusOK, map[string]any{"dir": s.SaveDir})
}

// statsBody is the /stats response: the engine's statistics, then the
// server's own.
type statsBody struct {
	repo.Stats

	// Mutation-surface health: successful mutation requests, rejected
	// authentications/authorizations, and per-token use counters (only
	// when token auth is configured).
	Mutations    int64            `json:"mutations_total"`
	AuthFailures int64            `json:"auth_failures_total"`
	Tokens       []auth.TokenStat `json:"tokens,omitempty"`

	// Limits reports the admission controller's counters and live
	// bucket state per principal (only when a limiter is configured).
	// Per-principal rows live here, not in /metrics: principal names
	// are unbounded-cardinality label values.
	Limits *limit.Stats `json:"limits,omitempty"`
	// ShedDraining counts requests refused because the server was
	// draining.
	ShedDraining int64 `json:"shed_draining_total"`
	// AuditRecords / AuditErrors report the mutation audit log (only
	// when auditing is configured).
	AuditRecords uint64 `json:"audit_records_total,omitempty"`
	AuditErrors  int64  `json:"audit_errors_total,omitempty"`

	// Storage reports the measured backend's operation counters (only
	// when the server was started with a bound storage backend).
	Storage *storage.MeasureStats `json:"storage,omitempty"`

	// Tasks reports the background runtime's counters (only when a task
	// runtime is configured).
	Tasks *tasks.Stats `json:"tasks,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, user string) {
	body := statsBody{Stats: s.repo.Stats()}
	// AuthFailures is the one count of failed authentications: every
	// invalid token fails principal() and is counted there.
	body.Mutations = s.mutations.Load()
	body.AuthFailures = s.authFailures.Load()
	body.ShedDraining = s.shedDraining.Load()
	if s.Auth != nil {
		body.Tokens = s.Auth.Stats()
	}
	if s.Limiter != nil {
		ls := s.Limiter.Stats()
		body.Limits = &ls
	}
	if s.Audit != nil {
		body.AuditRecords = s.Audit.Total()
		body.AuditErrors = s.auditErrors.Load()
	}
	if s.Store != nil {
		st := s.Store.Stats()
		body.Storage = &st
	}
	if s.Tasks != nil {
		ts := s.Tasks.Stats()
		body.Tasks = &ts
	}
	s.writeJSON(w, http.StatusOK, body)
}

// handleMetrics renders the same counters in the Prometheus text
// exposition format, one gauge per stat, under the provpriv_ prefix.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.repo.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	metric := func(name, help string, v int64) {
		// *_total counters are monotonic (the engine accumulates them
		// across shard removals); the rest are gauges.
		typ := "gauge"
		if strings.HasSuffix(name, "_total") {
			typ = "counter"
		}
		fmt.Fprintf(&b, "# HELP provpriv_%s %s\n# TYPE provpriv_%s %s\nprovpriv_%s %d\n",
			name, help, name, typ, name, v)
	}
	metric("specs", "Registered workflow specifications.", int64(st.Specs))
	metric("executions", "Stored executions.", int64(st.Executions))
	metric("users", "Registered users.", int64(st.Users))
	metric("index_terms", "Distinct terms in the inverted index.", int64(st.IndexTerms))
	metric("index_postings", "Total postings in the inverted index.", int64(st.Postings))
	metric("index_segments", "Per-spec segments in the inverted index.", int64(st.IndexSegments))
	metric("index_snapshot_swaps_total", "Inverted-index snapshot publications (spec mutations).", st.IndexSwaps)
	metric("taint_items_rewritten_total", "Items whose embedded protected values were rewritten by taint masking.", st.TaintRewritten)
	metric("taint_items_redacted_total", "Items fully redacted because taint rewriting could not remove a leak.", st.TaintRedacted)
	metric("masked_exec_cache_hits_total", "Per-shard masked-execution snapshot cache hits.", st.MaskedCacheHits)
	metric("masked_exec_cache_misses_total", "Per-shard masked-execution snapshot cache misses.", st.MaskedCacheMisses)
	metric("masked_exec_cache_entries", "Masked-execution snapshots currently held by the live shards' caches.", int64(st.MaskedCacheEntries))
	metric("exec_shapes", "Distinct execution shapes interned by the live shards (executions of one shape share their views' structure).", int64(st.ExecShapes))
	metric("view_plans", "Value-free view plans, one per (shape, access view), currently held by the live shards.", int64(st.ViewPlans))
	metric("mutations_total", "Successful mutation-endpoint requests.", s.mutations.Load())
	metric("auth_failures_total", "Rejected authentications and authorization denials.", s.authFailures.Load())
	metric("shed_draining_total", "Requests refused with 503 because the server was draining.", s.shedDraining.Load())
	if s.Limiter != nil {
		// Admission aggregates only; per-principal bucket state is in
		// /stats (principal names are unbounded label cardinality).
		ls := s.Limiter.Stats()
		metric("limit_allowed_total", "Requests admitted by the rate limiter.", ls.Allowed)
		metric("limit_rejected_rate_total", "Requests rejected 429 by a per-principal token bucket.", ls.RejectedRate)
		metric("limit_rejected_concurrency_total", "Requests rejected 429 by a per-principal in-flight cap.", ls.RejectedConcurrency)
		metric("limit_rejected_overload_total", "Requests rejected 503 by the global in-flight cap.", ls.RejectedOverload)
		metric("limit_bucket_evictions_total", "Idle per-principal buckets evicted to bound the map.", ls.Evictions)
		metric("limit_in_flight", "Requests currently inside the admission gate.", ls.InFlight)
		metric("limit_principals", "Per-principal buckets currently tracked.", int64(ls.Principals))
	}
	if s.Audit != nil {
		s.Audit.WritePrometheus(&b)
		metric("audit_errors_total", "Mutations whose audit append failed.", s.auditErrors.Load())
	}
	if s.Store != nil {
		ss := s.Store.Stats()
		metric("storage_appends_total", "Log append batches written to the storage backend.", int64(ss.Appends))
		metric("storage_append_records_total", "Records appended to shard logs.", int64(ss.AppendRecords))
		metric("storage_append_nanos_total", "Nanoseconds spent in log appends.", int64(ss.AppendNanos))
		metric("storage_replays_total", "Shard log replays.", int64(ss.Replays))
		metric("storage_replay_records_total", "Records replayed from shard logs.", int64(ss.ReplayRecords))
		metric("storage_replay_nanos_total", "Nanoseconds spent replaying shard logs.", int64(ss.ReplayNanos))
		metric("storage_checkpoints_total", "Shard checkpoints written (new shards and saves that fold a log).", int64(ss.Checkpoints))
		metric("storage_checkpoint_records_total", "Records written into shard checkpoints.", int64(ss.CheckpointRecords))
		metric("storage_checkpoint_nanos_total", "Nanoseconds spent writing checkpoints.", int64(ss.CheckpointNanos))
		metric("storage_checkpoint_reads_total", "Shard checkpoint reads.", int64(ss.CheckpointReads))
		metric("storage_commits_total", "Manifest commits (snapshot publication points).", int64(ss.Commits))
		metric("storage_commit_nanos_total", "Nanoseconds spent committing manifests.", int64(ss.CommitNanos))
		metric("storage_shard_drops_total", "Shards dropped from the backend.", int64(ss.Drops))
		metric("storage_errors_total", "Storage backend operations that returned an error.", int64(ss.Errors))
	}
	if s.Tasks != nil {
		ts := s.Tasks.Stats()
		metric("tasks_submitted_total", "Background tasks accepted by the runtime.", ts.Submitted)
		metric("tasks_started_total", "Background tasks a worker started.", ts.Started)
		metric("tasks_succeeded_total", "Background tasks that reached the succeeded state.", ts.Succeeded)
		metric("tasks_failed_total", "Background tasks whose handler failed.", ts.Failed)
		metric("tasks_canceled_total", "Background tasks canceled before completion.", ts.Canceled)
		metric("tasks_running", "Background tasks currently executing.", ts.Running)
		metric("tasks_queued", "Background tasks waiting for a worker.", ts.Queued)
	}
	if s.Auth != nil {
		// Per-token use counters, as one labeled series (the label value
		// is the token's public name — never secret material).
		fmt.Fprintf(&b, "# HELP provpriv_auth_token_uses_total Requests authenticated per token.\n"+
			"# TYPE provpriv_auth_token_uses_total counter\n")
		for _, ts := range s.Auth.Stats() {
			fmt.Fprintf(&b, "provpriv_auth_token_uses_total{token=%q,role=%q} %d\n", ts.Name, ts.Role, ts.Uses)
		}
	}
	if s.Obs != nil {
		// The observability layer's families: per-route latency
		// histograms, in-flight/panic counters, task histograms and Go
		// runtime gauges.
		s.Obs.Metrics.WritePrometheus(&b)
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		s.log().Error("write metrics", "error", err)
	}
}
