package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchmarkFile is the checked-in contract at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// expectedBenchmark renders BENCHMARK.json from the declarations in this
// package, the single source of the names.
func expectedBenchmark() benchmarkFile {
	b := benchmarkFile{
		Command:    []string{"go", "run", "./cmd/provload"},
		Paths:      []string{"cmd/provload"},
		RunSeconds: 10,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	return b
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json and the
// metric and workload tables of this package from drifting apart.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := expectedBenchmark()
	if !reflect.DeepEqual(got, want) {
		out, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json differs from cmd/provload's declarations; it should read:\n%s", out)
	}
	if n := len(want.PerLayer); n > 128 {
		t.Fatalf("%d per-layer metrics, the contract allows 128", n)
	}
	for _, w := range want.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
}

func declNames(decls []metricDecl) []string {
	ms := metricSet{}
	ms.complete(decls)
	return ms.names()
}

// TestQuickSmoke runs -quick end to end: it builds the real provserve,
// boots it once per workload, drives and checks every workload, replays
// the trace, and requires the emitted metric names to be exactly the
// declared ones.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots provserve")
	}
	dir := t.TempDir()
	log, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	cfg := &config{seed: 1, seconds: 0.3, quick: true, boots: 1, out: dir}
	var defs []*workloadDef
	for i := range workloads {
		defs = append(defs, &workloads[i])
	}
	ok, err := runAll(context.Background(), log, cfg, defs, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		out, _ := os.ReadFile(log.Name())
		t.Fatalf("a correctness gate failed:\n%s", out)
	}
	runs, err := readRuns(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		recs := runs[w.name]
		if len(recs) != 1 {
			t.Fatalf("workload %s: %d records, want 1", w.name, len(recs))
		}
		rec := recs[0]
		if !rec.Correct || rec.Failed != 0 || rec.Leaks != 0 || rec.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d leaks=%d", w.name, rec.Correct, rec.Attempted, rec.Failed, rec.Leaks)
		}
		if got, want := rec.EndToEnd.names(), declNames(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end metrics %v, want %v", w.name, got, want)
		}
		if got, want := rec.PerLayer.names(), declNames(perLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-layer metrics %v, want %v", w.name, got, want)
		}
		for _, d := range endToEnd {
			if rec.EndToEnd[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, d.Name, rec.EndToEnd[d.Name].Value)
			}
		}
		if w.readOnly && len(rec.Digests) != 2 {
			t.Errorf("%s: %d digests, want one per client", w.name, len(rec.Digests))
		}
		if fi, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "run-") {
			t.Errorf("scratch directory %s was not removed", e.Name())
		}
	}
}

// TestCompareVerdicts pins -compare's three verdicts and its exit gate.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rps, p50 []float64) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for i := range rps {
			rec := record{Workload: "scraper", Seed: 1, Correct: true, Attempted: 1, EndToEnd: metricSet{
				"throughput_rps": {Value: rps[i], Unit: "1/s"},
				"read_p50_ms":    {Value: p50[i], Unit: "ms"},
			}}
			if err := json.NewEncoder(f).Encode(rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	before := write("before", []float64{1000, 1010, 990, 1005, 995}, []float64{1, 1.01, 0.99, 1.3, 0.7})
	after := write("after", []float64{700, 710, 690, 705, 695}, []float64{1, 1.01, 0.99, 1.3, 0.7})
	var out strings.Builder
	worse, err := compareFiles(&out, before, after)
	if err != nil {
		t.Fatal(err)
	}
	if !worse || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("a 30%% throughput drop against a 20%% bound must be WORSE:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "UNRESOLVED") {
		t.Errorf("an unchanged median with a spread above the bound must be UNRESOLVED:\n%s", out.String())
	}
	out.Reset()
	if worse, _ := compareFiles(&out, before, before); worse || strings.Contains(out.String(), "WORSE") {
		t.Errorf("a file against itself must not be WORSE:\n%s", out.String())
	}
}
