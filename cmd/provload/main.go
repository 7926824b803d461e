// Command provload is the repository's benchmark: one command generates
// a seeded corpus, builds and boots a real provserve in production
// shape, drives named workloads over loopback HTTP in a closed loop,
// checks every answer against a cache-blind oracle, and prints
// end-to-end metrics (from the untraced subprocess run) and per-layer
// metrics (scraped from the server's own /metrics, and replayed
// in-process with a span around each call into a module's public
// functions). See README.md beside this file.
//
//	go run ./cmd/provload                         # all four workloads, both kinds of metrics
//	go run ./cmd/provload -workload scraper -seed 2
//	go run ./cmd/provload -quick                  # tiny corpus smoke run
//	go run ./cmd/provload -compare before.jsonl after.jsonl
//
// The driver of BENCHMARK.json runs
// `go run ./cmd/provload --workload W --seed N --seconds S --trace 0|1`
// and reads the last line of standard output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// record is one workload's result as appended to <out>/runs.jsonl, the
// input of -compare.
type record struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Quick     bool      `json:"quick,omitempty"`
	Commit    string    `json:"commit"`
	Go        string    `json:"go"`
	NProc     int       `json:"nproc"`
	Flags     []string  `json:"server_flags"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Leaks     int       `json:"leak_incidents"`
	Digests   []string  `json:"digests,omitempty"`
	EndToEnd  metricSet `json:"end_to_end,omitempty"`
	PerLayer  metricSet `json:"per_layer,omitempty"`
}

// result is the line the BENCHMARK.json driver reads.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	seed := flag.Int64("seed", 1, "seed of the corpus and every request list")
	names := flag.String("workload", "", "workloads to run, comma-separated (default: all four)")
	seconds := flag.Float64("seconds", 10, "length of the timed window per workload")
	trace := flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics (scrape + traced replay); default both")
	out := flag.String("out", filepath.Join(".bench_build", "provload"), "directory for runs.jsonl and trace-<workload>.jsonl; scratch data lives under it and is removed")
	quick := flag.Bool("quick", false, "smoke mode: tiny corpus, sub-second windows, one set-up")
	compare := flag.Bool("compare", false, "compare two runs.jsonl files given as arguments and exit non-zero on a regression")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files: before after"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	// The generator shares the box with the server; give it every core
	// the box has, as the server gets.
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var defs []*workloadDef
	if *names == "" {
		for i := range workloads {
			defs = append(defs, &workloads[i])
		}
	}
	for _, n := range strings.Split(*names, ",") {
		if n == "" {
			continue
		}
		d := workloadByName(n)
		if d == nil {
			fatal(fmt.Errorf("unknown workload %q", n))
		}
		defs = append(defs, d)
	}
	cfg := &config{seed: *seed, seconds: *seconds, quick: *quick, boots: 3, out: *out}
	if *quick {
		cfg.boots = 1
		cfg.seconds = min(cfg.seconds, 0.5)
	}
	ok, err := runAll(ctx, os.Stdout, cfg, defs, *trace)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "provload:", err)
	os.Exit(2)
}

// runAll generates the corpus once, then runs each workload. It reports
// whether every correctness gate held.
func runAll(ctx context.Context, w io.Writer, cfg *config, defs []*workloadDef, trace int) (bool, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return false, err
	}
	var err error
	if cfg.work, err = os.MkdirTemp(cfg.out, "run-"); err != nil {
		return false, err
	}
	defer os.RemoveAll(cfg.work)
	if cfg.work, err = filepath.Abs(cfg.work); err != nil {
		return false, err
	}
	if cfg.bin, err = buildServer(ctx, cfg.work); err != nil {
		return false, err
	}
	t0 := time.Now()
	c, err := generateCorpus(cfg.shape(), cfg.seed)
	if err != nil {
		return false, err
	}
	corpusDir := filepath.Join(cfg.work, "corpus")
	size, err := c.save(corpusDir)
	if err != nil {
		return false, err
	}
	commit := "unknown"
	if b, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	fmt.Fprintf(w, "provload corpus-v1 seed=%d specs=%d+%d executions=%d×%d+%d×%d size=%.1fMB generated in %.2fs\n",
		cfg.seed, c.shape.wideSpecs, c.shape.deepSpecs, c.shape.wideSpecs, c.shape.wideExecs,
		c.shape.deepSpecs, c.shape.deepExecs, float64(size)/(1<<20), time.Since(t0).Seconds())
	fmt.Fprintf(w, "nproc=%d go=%s commit=%s clients=2 closed-loop window=%.1fs set-ups=%d times scaled to probe speed %d/s\n",
		runtime.NumCPU(), runtime.Version(), commit, cfg.seconds, cfg.boots, referenceSpeed)

	allOK := true
	for _, def := range defs {
		sv, err := serve(ctx, cfg, c, corpusDir, def)
		if err != nil {
			return false, fmt.Errorf("%s: %w", def.name, err)
		}
		rec := record{
			Workload: def.name, Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick,
			Commit: commit, Go: runtime.Version(), NProc: runtime.NumCPU(), Flags: sv.flags,
			Attempted: sv.attempted, Failed: sv.failed, Leaks: sv.leaks,
		}
		if def.readOnly {
			rec.Digests = sv.digests
		}
		if trace != 1 {
			rec.EndToEnd = sv.endToEndMetrics()
		}
		if trace != 0 {
			rec.PerLayer = metricSet{}
			sv.scrapeMetrics(rec.PerLayer)
			if err := replay(ctx, cfg, corpusDir, sv, rec.PerLayer); err != nil {
				return false, fmt.Errorf("%s replay: %w", def.name, err)
			}
			rec.PerLayer.complete(perLayer)
		}
		rec.Correct = sv.failed == 0 && sv.leaks == 0 && sv.attempted > 0
		allOK = allOK && rec.Correct
		if err := report(w, cfg, &rec, sv, trace); err != nil {
			return false, err
		}
	}
	return allOK, nil
}

// report prints one workload's metrics by name with unit and sample
// count, appends the record to runs.jsonl, and ends with the driver's
// result line.
func report(w io.Writer, cfg *config, rec *record, sv *served, trace int) error {
	fmt.Fprintf(w, "\n== %s: %d requests in %.2fs, failed=%d leak_incidents=%d denied=%d boot=%.2fs",
		rec.Workload, rec.Attempted, sv.measured().Seconds(), rec.Failed, rec.Leaks, sv.denied, sv.bootS)
	if sv.firstWhy != "" {
		fmt.Fprintf(w, "\n   first violation: %s", sv.firstWhy)
	}
	fmt.Fprintf(w, "\n   server flags: %s\n", strings.Join(rec.Flags, " "))
	for i, d := range rec.Digests {
		fmt.Fprintf(w, "   digest client %d: %s\n", i, d)
	}
	line := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]resultMetric{}}
	for _, set := range []metricSet{rec.EndToEnd, rec.PerLayer} {
		for _, name := range set.names() {
			v := set[name]
			fmt.Fprintf(w, "   %-34s %14.4f %-6s n=%d\n", name, v.Value, v.Unit, v.N)
		}
	}
	// The driver reads end-to-end metrics with -trace 0 and per-layer
	// metrics with -trace 1; a run of both prints the end-to-end set.
	last := rec.EndToEnd
	if trace == 1 {
		last = rec.PerLayer
	}
	for name, v := range last {
		line.Metrics[name] = resultMetric{v.Value, v.Unit}
	}
	f, err := os.OpenFile(filepath.Join(cfg.out, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
