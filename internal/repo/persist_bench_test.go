package repo

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/workload"
)

// BenchmarkLoadStorage times Load of a saved directory. shared-shape is one
// shard holding 1000 runs of a deep spec: an execution mirrors the workflow
// graph, so the runs differ in values only and all but the first are
// stored, read and held as value vectors. distinct-shapes is the corpus
// that gains nothing: one frame of every run is perturbed, no two share a
// shape, every record is a full one, and it must cost what it did before
// value records existed. many-shards is shaped like provload's corpus-v1
// (48 wide shards of 24 runs, two deep ones of 1000), the directory whose
// shards load in parallel on the fan-out pool; compare it across -cpu.
// disk-B/exec is the saved directory's size per execution.
func BenchmarkLoadStorage(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func(b *testing.B) *Repository
	}{
		{"shared-shape", func(b *testing.B) *Repository { return deepShard(b, false) }},
		{"distinct-shapes", func(b *testing.B) *Repository { return deepShard(b, true) }},
		{"many-shards", func(b *testing.B) *Repository { return manyShards(b, 48, 24, 2, 1000) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := bc.build(b)
			execs := r.Stats().Executions
			dir := b.TempDir()
			if err := r.Save(dir); err != nil {
				b.Fatalf("Save: %v", err)
			}
			if err := r.CloseStorage(); err != nil {
				b.Fatal(err)
			}
			var size int64
			files, err := filepath.Glob(filepath.Join(dir, "*"))
			if err != nil {
				b.Fatal(err)
			}
			for _, f := range files {
				fi, err := os.Stat(f)
				if err != nil {
					b.Fatal(err)
				}
				size += fi.Size()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loaded, err := Load(dir)
				if err != nil {
					b.Fatalf("Load: %v", err)
				}
				if err := loaded.CloseStorage(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size)/float64(execs), "disk-B/exec")
		})
	}
}

// deepShard is one shard of 1000 runs, of one shape or (distinct) of a
// shape each.
func deepShard(b *testing.B, distinct bool) *Repository {
	const n = 1000
	r := New()
	_, add := makeSynthSpec(b, 1, "deep")
	add(r)
	addRuns(b, r, "deep", n, distinct)
	if got := r.Stats().ExecShapes; (got == n) != distinct {
		b.Fatalf("fixture: %d shapes among %d executions", got, n)
	}
	return r
}

// manyShards is wide shards of wideRuns runs each plus deep shards of
// deepRuns, every shard under the synthetic policy and its runs sharing
// their shape.
func manyShards(t testing.TB, wide, wideRuns, deep, deepRuns int) *Repository {
	r := New()
	for i := 0; i < wide+deep; i++ {
		id, runs := fmt.Sprintf("wide-%d", i), wideRuns
		if i >= wide {
			id, runs = fmt.Sprintf("deep-%d", i-wide), deepRuns
		}
		_, add := makeSynthSpec(t, int64(i), id)
		add(r)
		addRuns(t, r, id, runs, false)
	}
	return r
}

// addRuns stores n runs of spec sid on random inputs; distinct perturbs one
// frame of each, so no two share a shape.
func addRuns(t testing.TB, r *Repository, sid string, n int, distinct bool) {
	t.Helper()
	s := r.Spec(sid)
	for i := 0; i < n; i++ {
		e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("%s-E%d", sid, i), workload.RandomInputs(s, int64(i)))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		for _, nd := range e.Nodes {
			if distinct && len(nd.Frames) > 0 {
				nd.Frames[0].Sub += fmt.Sprint("#", i)
				break
			}
		}
		if err := r.AddExecution(e); err != nil {
			t.Fatalf("AddExecution: %v", err)
		}
	}
}
