package repo

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/workload"
)

// BenchmarkLoadStorage times Load of one shard holding 1000 runs of a deep
// spec. shared-shape is the rule — an execution mirrors the workflow graph,
// so the runs differ in values only and all but the first are stored, read
// and held as value vectors. distinct-shapes is the corpus that gains
// nothing: one frame of every run is perturbed, no two share a shape, every
// record is a full one, and it must cost what it did before value records
// existed. disk-B/exec is the saved directory's size per execution.
func BenchmarkLoadStorage(b *testing.B) {
	const n = 1000
	for _, distinct := range []bool{false, true} {
		name := "shared-shape"
		if distinct {
			name = "distinct-shapes"
		}
		b.Run(name, func(b *testing.B) {
			r := New()
			_, add := makeSynthSpec(b, 1, "deep")
			add(r)
			s := r.Spec("deep")
			for i := 0; i < n; i++ {
				e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("deep-E%d", i), workload.RandomInputs(s, int64(i)))
				if err != nil {
					b.Fatalf("Run: %v", err)
				}
				for _, nd := range e.Nodes {
					if distinct && len(nd.Frames) > 0 {
						nd.Frames[0].Sub += fmt.Sprint("#", i)
						break
					}
				}
				if err := r.AddExecution(e); err != nil {
					b.Fatalf("AddExecution: %v", err)
				}
			}
			if got := r.Stats().ExecShapes; (got == n) != distinct {
				b.Fatalf("fixture: %d shapes among %d executions", got, n)
			}
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
			b.ReportMetric(float64(size)/n, "disk-B/exec")
		})
	}
}
