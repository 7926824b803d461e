package rank

import (
	"math"
	"sync"
	"testing"
)

func testCorpus() *Corpus {
	c := NewCorpus()
	c.Add("doc1", []string{"database", "database", "database", "query"})
	c.Add("doc2", []string{"database", "query", "query"})
	c.Add("doc3", []string{"workflow", "provenance"})
	return c
}

func TestTFAndIDF(t *testing.T) {
	c := testCorpus()
	if c.TF("doc1", "database") != 3 {
		t.Fatalf("TF = %d", c.TF("doc1", "database"))
	}
	if c.TF("doc3", "database") != 0 {
		t.Fatal("TF for absent term != 0")
	}
	wantIDF := math.Log(1 + 3.0/2.0)
	if got := c.IDF("database"); math.Abs(got-wantIDF) > 1e-12 {
		t.Fatalf("IDF = %v, want %v", got, wantIDF)
	}
	if c.IDF("missing") != 0 {
		t.Fatal("IDF of missing term != 0")
	}
}

func TestAddReplacesDoc(t *testing.T) {
	c := testCorpus()
	c.Add("doc1", []string{"workflow"})
	if c.TF("doc1", "database") != 0 {
		t.Fatal("re-Add did not replace")
	}
	// df for database should have dropped to 1 (doc2 only).
	want := math.Log(1 + 3.0/1.0)
	if got := c.IDF("database"); math.Abs(got-want) > 1e-12 {
		t.Fatalf("IDF after replace = %v, want %v", got, want)
	}
}

func TestRankOrder(t *testing.T) {
	c := testCorpus()
	rs := c.Rank([]string{"database"})
	if len(rs) != 2 {
		t.Fatalf("ranked = %v", rs)
	}
	if rs[0].Doc != "doc1" || rs[1].Doc != "doc2" {
		t.Fatalf("order = %v", rs)
	}
	if rs[0].Score <= rs[1].Score {
		t.Fatal("scores not descending")
	}
}

func TestRankDropsZeroScores(t *testing.T) {
	c := testCorpus()
	rs := c.Rank([]string{"provenance"})
	if len(rs) != 1 || rs[0].Doc != "doc3" {
		t.Fatalf("ranked = %v", rs)
	}
}

func TestRankDeterministicTieBreak(t *testing.T) {
	c := NewCorpus()
	c.Add("b", []string{"x"})
	c.Add("a", []string{"x"})
	rs := c.Rank([]string{"x"})
	if rs[0].Doc != "a" || rs[1].Doc != "b" {
		t.Fatalf("tie-break = %v", rs)
	}
}

func TestExactScoresLeak(t *testing.T) {
	// The paper's warning: exact scores + public IDF invert to exact
	// term counts.
	c := testCorpus()
	published := c.Rank([]string{"database"})
	rep := FrequencyAttack(c, published, "database")
	if rep.ExactHits != rep.Docs || rep.Docs != 2 {
		t.Fatalf("attack on exact scores: %+v, want full recovery", rep)
	}
	if rep.MeanAbsErr > 1e-9 {
		t.Fatalf("MeanAbsErr = %v", rep.MeanAbsErr)
	}
}

func TestBucketizeBluntsAttack(t *testing.T) {
	c := NewCorpus()
	// Many docs with distinct counts so bucketing actually merges.
	terms := func(n int) []string {
		var ts []string
		for i := 0; i < n; i++ {
			ts = append(ts, "database")
		}
		return ts
	}
	for i := 1; i <= 10; i++ {
		c.Add(docName(i), terms(i))
	}
	exact := c.Rank([]string{"database"})
	bucketed := Bucketize(exact, 3)
	repExact := FrequencyAttack(c, exact, "database")
	repBucketed := FrequencyAttack(c, bucketed, "database")
	if repExact.ExactHits != 10 {
		t.Fatalf("exact attack should fully recover: %+v", repExact)
	}
	if repBucketed.ExactHits >= repExact.ExactHits {
		t.Fatalf("bucketing did not reduce recovery: %+v vs %+v", repBucketed, repExact)
	}
	if repBucketed.MeanAbsErr <= repExact.MeanAbsErr {
		t.Fatal("bucketing did not increase attack error")
	}
}

func docName(i int) string { return "doc" + string(rune('A'+i)) }

func TestBucketizePreservesApproxOrder(t *testing.T) {
	c := NewCorpus()
	for i := 1; i <= 10; i++ {
		var ts []string
		for j := 0; j < i*i; j++ { // spread scores
			ts = append(ts, "q")
		}
		c.Add(docName(i), ts)
	}
	exact := c.Rank([]string{"q"})
	bucketed := Bucketize(exact, 5)
	tau := KendallTau(exact, bucketed)
	if tau < 0.7 {
		t.Fatalf("Kendall τ = %v, want ≥ 0.7", tau)
	}
}

func TestBucketizeDeterministic(t *testing.T) {
	c := testCorpus()
	rs := c.Rank([]string{"database", "query"})
	b1 := Bucketize(rs, 4)
	b2 := Bucketize(rs, 4)
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("bucketize nondeterministic")
		}
	}
	// Degenerate inputs.
	if got := Bucketize(nil, 4); got != nil {
		t.Fatalf("Bucketize(nil) = %v", got)
	}
	if got := Bucketize(rs, 0); len(got) != len(rs) {
		t.Fatal("nBuckets=0 mangled input")
	}
}

func TestKendallTau(t *testing.T) {
	a := []Ranked{{"x", 3}, {"y", 2}, {"z", 1}}
	same := []Ranked{{"x", 9}, {"y", 8}, {"z", 7}}
	if got := KendallTau(a, same); got != 1 {
		t.Fatalf("τ(same) = %v", got)
	}
	rev := []Ranked{{"z", 9}, {"y", 8}, {"x", 7}}
	if got := KendallTau(a, rev); got != -1 {
		t.Fatalf("τ(reversed) = %v", got)
	}
	if got := KendallTau(a, []Ranked{{"x", 1}}); got != 1 {
		t.Fatalf("τ(singleton) = %v", got)
	}
}

func TestInvertTFZeroIDF(t *testing.T) {
	if InvertTF(5, 0) != 0 {
		t.Fatal("InvertTF with zero idf should be 0")
	}
}

func TestVisibleOnlyCorpusLeaksNothing(t *testing.T) {
	// Privacy-aware mode (a): scores computed over the redacted corpus.
	full := NewCorpus()
	full.Add("doc1", []string{"secret", "secret", "secret", "public"})
	visible := NewCorpus()
	visible.Add("doc1", []string{"public"}) // secret module keywords gone
	published := visible.Rank([]string{"secret"})
	if len(published) != 0 {
		t.Fatalf("visible-only ranking leaked: %v", published)
	}
	// Ranking restricted to visible terms equals ranking
	// computed on the redacted corpus — trivially, they are the same
	// object here; the attack has no scores to invert.
	rep := FrequencyAttack(full, published, "secret")
	if rep.Docs != 0 {
		t.Fatalf("attack had material: %+v", rep)
	}
}

func TestPerturbBreaksReproducibility(t *testing.T) {
	c := NewCorpus()
	for i := 1; i <= 10; i++ {
		var ts []string
		for j := 0; j < i; j++ {
			ts = append(ts, "q")
		}
		c.Add(docName(i), ts)
	}
	exact := c.Rank([]string{"q"})
	a := Perturb(exact, 1.0, 1)
	b := Perturb(exact, 1.0, 2)
	same := true
	for i := range a {
		if a[i].Doc != b[i].Doc {
			same = false
		}
	}
	if same {
		t.Fatal("two noisy rankings identical — no noise applied?")
	}
	// Deterministic under the same seed.
	a2 := Perturb(exact, 1.0, 1)
	for i := range a {
		if a[i] != a2[i] {
			t.Fatal("same seed, different perturbation")
		}
	}
}

func TestPerturbBluntsAttack(t *testing.T) {
	c := NewCorpus()
	for i := 1; i <= 10; i++ {
		var ts []string
		for j := 0; j < i; j++ {
			ts = append(ts, "database")
		}
		c.Add(docName(i), ts)
	}
	exact := c.Rank([]string{"database"})
	noisy := Perturb(exact, 2.0, 7)
	repExact := FrequencyAttack(c, exact, "database")
	repNoisy := FrequencyAttack(c, noisy, "database")
	if repNoisy.MeanAbsErr <= repExact.MeanAbsErr {
		t.Fatal("perturbation did not increase attack error")
	}
}

// rankingsEqual compares two rankings entry by entry with a float
// tolerance (deltas and rebuilds may differ in summation order).
func rankingsEqual(a, b []Ranked) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || math.Abs(a[i].Score-b[i].Score) > 1e-12 {
			return false
		}
	}
	return true
}

// TestDeltaMatchesRebuild is the incremental-maintenance contract: a
// corpus maintained by Add/RemoveDoc deltas must rank identically to
// one rebuilt from scratch with the same final document set.
func TestDeltaMatchesRebuild(t *testing.T) {
	delta := NewCorpus()
	delta.Add("d1", []string{"database", "query"})
	delta.Add("d2", []string{"database", "workflow"})
	delta.Add("d3", []string{"query", "query", "provenance"})
	delta.RemoveDoc("d2")
	delta.Add("d4", []string{"database", "database"})
	delta.Add("d1", []string{"database"}) // replace d1
	delta.RemoveDoc("ghost")              // no-op

	rebuilt := NewCorpus()
	rebuilt.Add("d1", []string{"database"})
	rebuilt.Add("d3", []string{"query", "query", "provenance"})
	rebuilt.Add("d4", []string{"database", "database"})

	if len(delta.docs) != len(rebuilt.docs) {
		t.Fatalf("N: %d vs %d", len(delta.docs), len(rebuilt.docs))
	}
	for _, term := range []string{"database", "query", "workflow", "provenance"} {
		if da, db := delta.IDF(term), rebuilt.IDF(term); math.Abs(da-db) > 1e-12 {
			t.Fatalf("IDF(%s): %v vs %v", term, da, db)
		}
	}
	for _, q := range [][]string{{"database"}, {"query"}, {"database", "provenance"}} {
		if !rankingsEqual(delta.Rank(q), rebuilt.Rank(q)) {
			t.Fatalf("Rank(%v): %v vs %v", q, delta.Rank(q), rebuilt.Rank(q))
		}
	}
}

// TestRemoveDocDropsDF checks document-frequency bookkeeping: removing
// the last document holding a term zeroes its IDF.
func TestRemoveDocDropsDF(t *testing.T) {
	c := NewCorpus()
	c.Add("only", []string{"rare", "common"})
	c.Add("other", []string{"common"})
	c.RemoveDoc("only")
	if c.IDF("rare") != 0 {
		t.Fatalf("IDF of orphaned term = %v", c.IDF("rare"))
	}
	if c.IDF("common") == 0 {
		t.Fatal("surviving term lost its df")
	}
}

// TestCorpusConcurrentDeltaAndRank races Rank/Score readers against
// Add/RemoveDoc writers (run under -race): every observed ranking
// must be internally consistent — a doc either fully present or fully
// absent, never a torn score.
func TestCorpusConcurrentDeltaAndRank(t *testing.T) {
	c := NewCorpus()
	for i := 0; i < 8; i++ {
		c.Add(docName(i), []string{"database", "query"})
	}
	var wg, writerWG sync.WaitGroup
	stop := make(chan struct{})
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := "churn"
			if i%2 == 0 {
				c.Add(id, []string{"database", "database", "database"})
			} else {
				c.RemoveDoc(id)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rs := c.Rank([]string{"database"})
				if len(rs) < 8 {
					t.Errorf("ranking lost stable docs: %d", len(rs))
					return
				}
				for _, r := range rs {
					if r.Doc == "churn" && r.Score <= 0 {
						t.Error("zero-score doc ranked")
						return
					}
				}
			}
		}()
	}
	wg.Wait() // readers done; then stop the writer
	close(stop)
	writerWG.Wait()
}

// RemoveDoc deletes one document through removeLocked, the bookkeeping
// Add runs when it replaces a document: the inverse delta of Add.
// Removing an unknown doc is a no-op.
func (c *Corpus) RemoveDoc(docID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeLocked(docID)
}
