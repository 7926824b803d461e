// Command provserve serves a provenance repository over HTTP: the
// multi-tenant front door to the sharded query engine. It loads a
// repository directory produced by provgen (or the built-in paper
// example, or starts empty), registers one user per access level, and
// exposes the JSON API of internal/server — reads and, with a token
// file, the authenticated mutation surface.
//
// Serve the built-in example:
//
//	provserve -example -addr :8080
//
// Serve a generated corpus with extra registered users:
//
//	provserve -data ./provdata -addr :8080 -user analyst1=2 -user owner1=3
//
// Query it (the X-Prov-User header names the principal; ?user= works
// for curl convenience). Without a token file, header principals are
// fully trusted — dev mode only:
//
//	curl -H 'X-Prov-User: owner' 'localhost:8080/api/v1/search?q=database'
//	curl 'localhost:8080/api/v1/provenance?user=public&spec=disease-susceptibility&exec=E1&item=d18'
//
// Production: generate a token file (see internal/auth for the format;
// `provserve -hash-secret` turns a secret into the stored digest) and
// start with -token-file. Header auth is then rejected — clients send
// `Authorization: Bearer <secret>` — and mutations flow:
//
//	printf %s "$SECRET" | provserve -hash-secret
//	provserve -data ./provdata -token-file ./tokens
//	curl -X POST -H "Authorization: Bearer $SECRET" -d @spec.json \
//	  'localhost:8080/api/v1/specs'
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"provpriv/internal/auditlog"
	"provpriv/internal/auth"
	"provpriv/internal/exec"
	"provpriv/internal/limit"
	"provpriv/internal/obs"
	"provpriv/internal/privacy"
	"provpriv/internal/repo"
	"provpriv/internal/server"
	"provpriv/internal/storage"
	"provpriv/internal/workflow"
)

// traceRing is how many completed traces GET /api/v1/debug/traces keeps, a
// size nobody has needed to set. The query fan-out pool is sized to
// GOMAXPROCS by repo.New.
const traceRing = 256

// unwindGrace bounds the wait, at shutdown, for the requests canceled at
// -drain-timeout to return. A canceled bulk batch stops before its next
// item; the bound is for a request stuck reading a slow client's body.
const unwindGrace = time.Second

// userFlags collects repeated -user NAME=LEVEL flags.
type userFlags []privacy.User

func (u *userFlags) String() string { return fmt.Sprint(*u) }

func (u *userFlags) Set(v string) error {
	name, lvl, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want NAME=LEVEL, got %q", v)
	}
	n, err := strconv.Atoi(lvl)
	if err != nil || n < 0 {
		return fmt.Errorf("bad level in %q", v)
	}
	*u = append(*u, privacy.User{Name: name, Level: privacy.Level(n), Group: "level" + lvl})
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("provserve: ")
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "", "repository directory from provgen or repo.Save (missing manifest starts empty)")
	// There is one storage backend. The flag is parsed only because the
	// frozen benchmark harness (cmd/provload/proc.go) starts the server
	// with "-backend flat"; it goes with BENCHMARK.json v2 (ROADMAP 4(f)).
	backendName := flag.String("backend", "flat", "accepted for compatibility; flat is the only value")
	example := flag.Bool("example", false, "serve the built-in paper example instead of -data")
	// Bulk ingest runs inside its request; there are no task workers. The
	// flag is parsed only because the frozen benchmark harness starts the
	// server with "-task-workers 2"; it goes with -backend.
	flag.Int("task-workers", 2, "accepted for compatibility; ignored")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"shutdown budget for in-flight requests to finish; requests still running then are canceled (a bulk batch stops between items)")
	tokenFile := flag.String("token-file", "",
		"bearer-token file (name:role:user:sha256hex per line); configuring it disables the trusted X-Prov-User header")
	tokenReload := flag.Duration("token-reload", 5*time.Second,
		"poll the token file for changes at this interval and hot-swap the token set (0 disables polling; SIGHUP always forces a reload)")
	rateReader := flag.Float64("rate-reader", 0,
		"per-principal sustained request rate for reader-role principals, req/s (0 = unlimited)")
	rateWriter := flag.Float64("rate-writer", 0,
		"per-principal sustained request rate for writer-role principals, req/s (0 = unlimited)")
	rateAdmin := flag.Float64("rate-admin", 0,
		"per-principal sustained request rate for admin-role principals, req/s (0 = unlimited)")
	rateBurst := flag.Float64("rate-burst", 10,
		"token-bucket depth for the -rate-* limits: how many requests a principal may burst above the sustained rate")
	maxInflight := flag.Int("max-inflight", 0,
		"global cap on concurrently served requests; excess is shed with 503 (0 = unlimited)")
	maxInflightPrincipal := flag.Int("max-inflight-principal", 0,
		"per-principal cap on concurrent requests; excess is 429 + Retry-After (0 = unlimited)")
	auditDir := flag.String("audit-log", "",
		"directory for the append-only mutation audit log (who/what/when/outcome, queryable at GET /api/v1/audit; empty disables auditing)")
	hashSecret := flag.Bool("hash-secret", false,
		"read a secret from stdin, print its token-file digest, and exit")
	newToken := flag.String("new-token", "",
		"generate a random secret for NAME:ROLE:USER, print the secret and the token-file line, and exit")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	traceSample := flag.Int("trace-sample", 8,
		"trace one request in N (1 traces everything, 0 disables tracing)")
	slowThreshold := flag.Duration("slow-threshold", 500*time.Millisecond,
		"requests slower than this are logged and flagged in traces")
	enablePprof := flag.Bool("pprof", false, "expose /debug/pprof/ (admin role required)")
	var users userFlags
	flag.Var(&users, "user", "register a user as NAME=LEVEL (repeatable)")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		log.Fatal(err)
	}
	// Route any stray std-log output (and the pre-structured fatal
	// paths) through the structured handler too.
	slog.SetDefault(logger)

	if *hashSecret {
		sc := bufio.NewScanner(os.Stdin)
		if !sc.Scan() {
			log.Fatal("hash-secret: no input on stdin")
		}
		fmt.Println(auth.HashSecret(strings.TrimSpace(sc.Text())))
		return
	}
	if *newToken != "" {
		// The secure path made easy: a fresh 256-bit secret plus the
		// ready-to-append token-file line. The secret is printed once,
		// to stdout, and never stored.
		parts := strings.Split(*newToken, ":")
		if len(parts) != 3 {
			log.Fatalf("new-token: want NAME:ROLE:USER, got %q", *newToken)
		}
		if _, err := auth.ParseRole(parts[1]); err != nil {
			log.Fatalf("new-token: %v", err)
		}
		secret, err := auth.NewSecret()
		if err != nil {
			log.Fatalf("new-token: %v", err)
		}
		fmt.Printf("secret: %s\ntoken-file line: %s:%s:%s:%s\n",
			secret, parts[0], parts[1], parts[2], auth.HashSecret(secret))
		return
	}

	if *backendName != "flat" {
		log.Fatalf("bad -backend %q (flat is the only backend)", *backendName)
	}
	var r *repo.Repository
	var store *storage.Measure
	loadStart := time.Now()
	switch {
	case *example:
		r = repo.New()
		loadExample(r)
	case *data != "":
		if r, store, err = openDataDir(*data); err != nil {
			log.Fatalf("load %s: %v", *data, err)
		}
	default:
		log.Fatal("need -data DIR or -example")
	}
	// Cold start: how long the repository took to build, and what it holds.
	loadMS, loaded := float64(time.Since(loadStart).Microseconds())/1e3, r.Stats()
	// Default principals: one per common level, so the API is usable
	// out of the box. Explicit -user flags add or override.
	for _, u := range []privacy.User{
		{Name: "public", Level: privacy.Public, Group: "public"},
		{Name: "registered", Level: privacy.Registered, Group: "registered"},
		{Name: "analyst", Level: privacy.Analyst, Group: "analysts"},
		{Name: "owner", Level: privacy.Owner, Group: "owners"},
	} {
		r.AddUser(u)
	}
	for _, u := range users {
		r.AddUser(u)
	}

	srv := server.New(r)
	srv.Logger = logger
	srv.Store = store
	srv.EnablePprof = *enablePprof
	srv.RequireStorage = store != nil

	// The observability layer: request ids + per-route histograms on
	// every request, sampled tracing through the engine, panic recovery.
	metrics := obs.NewMetrics()
	tracer := obs.NewTracer(traceRing, *traceSample, *slowThreshold)
	srv.Obs = obs.NewObserver(metrics, logger, tracer)

	authMode := "trusted-headers (dev)"
	var authStore *auth.Store
	if *tokenFile != "" {
		authStore, err = auth.NewFileStore(*tokenFile)
		if err != nil {
			log.Fatalf("token file: %v", err)
		}
		srv.Auth = authStore
		authMode = "bearer-tokens"
	} else {
		logger.Warn("trusted X-Prov-User headers accepted (dev mode; use -token-file in production)")
	}

	// Admission control: only built when the operator configured at
	// least one limit, so an unconfigured server keeps the zero-cost
	// fast path.
	if *rateReader > 0 || *rateWriter > 0 || *rateAdmin > 0 ||
		*maxInflight > 0 || *maxInflightPrincipal > 0 {
		srv.Limiter = limit.New(limit.Config{
			MaxInFlight:             *maxInflight,
			MaxInFlightPerPrincipal: *maxInflightPrincipal,
		})
		srv.Rates = server.RoleRates{
			Reader: limit.Rate{PerSec: *rateReader, Burst: *rateBurst},
			Writer: limit.Rate{PerSec: *rateWriter, Burst: *rateBurst},
			Admin:  limit.Rate{PerSec: *rateAdmin, Burst: *rateBurst},
		}
	}

	// Mutation audit log: its own storage directory (never mixed into
	// the repository's shards) so the repo loader and the audit replay
	// each see only their own record types.
	var alog *auditlog.Log
	if *auditDir != "" {
		ab, err := storage.OpenFlat(*auditDir)
		if err != nil {
			log.Fatalf("audit log: %v", err)
		}
		if alog, err = auditlog.Open(ab); err != nil {
			log.Fatalf("audit log: %v", err)
		}
		srv.Audit = alog
	}
	// A served directory is saved in place; -example serves from memory and
	// POST /api/v1/save answers 400 there.
	srv.SaveDir = *data
	// Every request context derives from reqCtx, so shutdown can cancel the
	// requests still running once its budget is spent.
	reqCtx, cancelRequests := context.WithCancel(context.Background())
	defer cancelRequests()
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return reqCtx },
	}

	// One structured record with the effective configuration, so any
	// aggregated log stream identifies how this process was running.
	logger.Info("serving",
		"addr", *addr,
		"data_dir", *data,
		"example", *example,
		"load_ms", loadMS,
		"shards", loaded.Specs,
		"executions", loaded.Executions,
		"drain_timeout", *drainTimeout,
		"auth_mode", authMode,
		"token_reload", *tokenReload,
		"rate_reader", *rateReader,
		"rate_writer", *rateWriter,
		"rate_admin", *rateAdmin,
		"rate_burst", *rateBurst,
		"max_inflight", *maxInflight,
		"max_inflight_principal", *maxInflightPrincipal,
		"audit_log", *auditDir,
		"save_dir", srv.SaveDir,
		"log_format", *logFormat,
		"log_level", *logLevel,
		"trace_sample", *traceSample,
		"slow_threshold", *slowThreshold,
		"pprof", *enablePprof,
	)
	fmt.Print(r.Describe())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Hot token rotation: SIGHUP forces a reload, and (by default) an
	// mtime/size poll picks up edits without any signal. A reload swaps
	// the token set atomically — unchanged tokens are carried over by
	// pointer, so in-flight requests never flap — and a malformed edit
	// is logged and ignored, keeping the last good set.
	if authStore != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			var tick <-chan time.Time
			if *tokenReload > 0 {
				t := time.NewTicker(*tokenReload)
				defer t.Stop()
				tick = t.C
			}
			for {
				select {
				case <-ctx.Done():
					return
				case <-hup:
					if err := authStore.Reload(); err != nil {
						logger.Error("token reload failed; keeping previous token set",
							"trigger", "sighup", "error", err)
					} else {
						logger.Info("token file reloaded",
							"trigger", "sighup", "tokens", len(authStore.Stats()))
					}
				case <-tick:
					reloaded, err := authStore.MaybeReload()
					if err != nil {
						logger.Error("token reload failed; keeping previous token set",
							"trigger", "poll", "error", err)
					} else if reloaded {
						logger.Info("token file reloaded",
							"trigger", "poll", "tokens", len(authStore.Stats()))
					}
				}
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
		// Graceful drain: stop accepting requests and let in-flight ones
		// finish within -drain-timeout. Requests still running then are
		// canceled — a bulk batch stops between items — and given
		// unwindGrace to return, so the final snapshot sees no batch
		// mid-way and nothing accepted before the signal is lost. Then the
		// storage backend is released. Each stage logs its own duration so
		// a slow shutdown names its culprit.
		srv.SetDraining(true)
		logger.Info("shutdown started", "drain_timeout", *drainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		stage := time.Now()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown: http drain", "duration", time.Since(stage), "error", err)
			cancelRequests()
			stage = time.Now()
			unwindCtx, cancelUnwind := context.WithTimeout(context.Background(), unwindGrace)
			if err := httpSrv.Shutdown(unwindCtx); err != nil {
				logger.Error("shutdown: canceled requests", "duration", time.Since(stage), "error", err)
			} else {
				logger.Info("shutdown: canceled requests returned", "duration", time.Since(stage))
			}
			cancelUnwind()
		} else {
			logger.Info("shutdown: http drained", "duration", time.Since(stage))
		}
		if srv.SaveDir != "" {
			stage = time.Now()
			if err := r.Save(srv.SaveDir); err != nil {
				logger.Error("shutdown: final save", "duration", time.Since(stage), "error", err)
			} else {
				logger.Info("shutdown: saved", "dir", srv.SaveDir, "duration", time.Since(stage))
			}
		}
		if err := r.CloseStorage(); err != nil {
			logger.Error("shutdown: close storage", "error", err)
		}
		if alog != nil {
			if err := alog.Close(); err != nil {
				logger.Error("shutdown: close audit log", "error", err)
			}
		}
		logger.Info("shutdown complete")
	}
}

// openDataDir opens (creating if missing) the repository directory
// through a measured storage backend, so the server can export storage
// counters. A fresh directory loads as an empty bound repository: the
// mutation endpoints fill it and POST /api/v1/save commits generation 1.
func openDataDir(dir string) (*repo.Repository, *storage.Measure, error) {
	b, err := storage.OpenFlat(dir)
	if err != nil {
		return nil, nil, err
	}
	m := storage.NewMeasure(b)
	r, err := repo.LoadStorage(m, dir)
	if err != nil {
		m.Close()
		return nil, nil, err
	}
	return r, m, nil
}

// loadExample seeds the paper's disease-susceptibility workflow with
// the canonical policy (snps owner-only, disorders analyst-only,
// per-level view grants) and one execution — the same fixture the CLI
// tools and tests use.
func loadExample(r *repo.Repository) {
	spec := workflow.DiseaseSusceptibility()
	pol := privacy.NewPolicy(spec.ID)
	pol.DataLevels["snps"] = privacy.Owner
	pol.DataLevels["disorders"] = privacy.Analyst
	pol.ViewGrants[privacy.Registered] = []string{"W2"}
	pol.ViewGrants[privacy.Analyst] = []string{"W3", "W4"}
	if err := r.AddSpec(spec, pol); err != nil {
		log.Fatalf("example spec: %v", err)
	}
	e, err := exec.NewRunner(spec, nil).Run("E1", map[string]exec.Value{
		"snps": "rs123", "ethnicity": "eth1", "lifestyle": "active",
		"family_history": "fh1", "symptoms": "none",
	})
	if err != nil {
		log.Fatalf("example execution: %v", err)
	}
	if err := r.AddExecution(e); err != nil {
		log.Fatalf("example execution: %v", err)
	}
}
