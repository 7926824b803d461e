package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/repo"
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
// posts.
const bulkIngestBatchSize = 64

// BenchmarkBulkIngest measures the bulk route minus the network: one
// iteration serves a pre-marshaled 64-item batch through Handler(), which
// splits the array, strict-decodes, validates and ingests every item, and
// answers once the batch is applied.
func BenchmarkBulkIngest(b *testing.B) {
	r := repo.New()
	if err := r.AddSpec(zebrafishSpec(b, "zfish"), nil); err != nil {
		b.Fatal(err)
	}
	r.AddUser(privacy.User{Name: "loader", Level: privacy.Owner, Group: "owners"})
	h := New(r).Handler()
	want := fmt.Sprintf(`{"added":%d,"failed":0}`, bulkIngestBatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		body, err := json.Marshal(benchBatch(b, r, fmt.Sprintf("B%d", i), bulkIngestBatchSize))
		if err != nil {
			b.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/api/v1/executions:bulk", bytes.NewReader(body))
		req.Header.Set("X-Prov-User", "loader")
		w := httptest.NewRecorder()
		b.StartTimer()
		h.ServeHTTP(w, req)
		if got := strings.TrimSpace(w.Body.String()); w.Code != http.StatusOK || got != want {
			b.Fatalf("bulk ingest answered %d %s, want 200 %s", w.Code, got, want)
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
