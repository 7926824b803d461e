package server

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/repo"
	"provpriv/internal/tasks"
)

// benchBatch pre-runs and marshals n fresh zebrafish executions with a
// distinct id prefix.
func benchBatch(b *testing.B, r *repo.Repository, prefix string, n int) []json.RawMessage {
	b.Helper()
	spec := r.Spec("zfish")
	items := make([]json.RawMessage, n)
	for j := range items {
		e, err := exec.NewRunner(spec, nil).Run(fmt.Sprintf("%s-%d", prefix, j), map[string]exec.Value{
			"x": exec.Value(fmt.Sprintf("tank-%s-%d", prefix, j)),
		})
		if err != nil {
			b.Fatal(err)
		}
		raw, err := json.Marshal(e)
		if err != nil {
			b.Fatal(err)
		}
		items[j] = raw
	}
	return items
}

// bulkIngestBatchSize is the batch one BenchmarkBulkIngest iteration
// pushes through the task runtime.
const bulkIngestBatchSize = 64

// BenchmarkBulkIngest measures the bulk path end to end minus HTTP:
// one iteration submits a pre-marshaled 64-item batch to the task
// runtime and waits for the worker to strict-decode, validate, and
// ingest every item.
func BenchmarkBulkIngest(b *testing.B) {
	r := repo.New()
	if err := r.AddSpec(zebrafishSpec(b, "zfish"), nil); err != nil {
		b.Fatal(err)
	}
	s := New(r)
	rt := tasks.New(2, 8)
	s.Tasks = rt
	defer rt.Drain(context.Background())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		items := benchBatch(b, r, fmt.Sprintf("B%d", i), bulkIngestBatchSize)
		done := make(chan error, 1)
		b.StartTimer()
		_, err := rt.Submit("bulk-ingest", func(ctx context.Context, p *tasks.Progress) (any, error) {
			res := &bulkResult{}
			p.Set(0, int64(len(items)))
			for _, raw := range items {
				if err := s.bulkItem(raw); err != nil {
					done <- err
					return nil, err
				}
				p.Add(1)
			}
			done <- nil
			return res, nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(bulkIngestBatchSize*b.N)/b.Elapsed().Seconds(), "execs/sec")
}

// BenchmarkSaveIncremental measures the incremental save: each iteration
// adds one execution and saves, appending one record, except the save
// whose record would push the shard log past the repository's fold
// threshold, which rewrites the shard's checkpoint instead — so ns/op
// averages the appends with the folds that keep replay bounded.
func BenchmarkSaveIncremental(b *testing.B) {
	dir := b.TempDir()
	r := repo.New()
	if err := r.AddSpec(zebrafishSpec(b, "zfish"), nil); err != nil {
		b.Fatal(err)
	}
	spec := r.Spec("zfish")
	if err := r.Save(dir); err != nil {
		b.Fatal(err)
	}
	defer r.CloseStorage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := exec.NewRunner(spec, nil).Run(fmt.Sprintf("S%d", i), map[string]exec.Value{
			"x": exec.Value(fmt.Sprintf("tank-%d", i)),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := r.AddExecution(e); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := r.Save(dir); err != nil {
			b.Fatal(err)
		}
	}
}
