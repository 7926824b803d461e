// Package rank implements result ranking for keyword search and the
// privacy analysis of Section 4 of the CIDR 2011 paper ("Impact of
// Ranking on Privacy Preservation"): a TF-IDF ranker, the
// frequency-inference attack the paper warns about — "a user might be
// able to infer the range of value occurrences in a result even though
// s/he is unable to see the values" — and two privacy-aware ranking
// schemes that blunt the attack:
//
//   - visible-only scoring: term statistics are computed over the
//     user-visible view of each workflow, so scores carry no information
//     about hidden modules at all;
//   - score bucketing: exact scores are quantized into a small number of
//     buckets before publication, bounding what any inversion can learn
//     while approximately preserving the ranking (bench B6 reports the
//     Kendall-τ rank quality against the leakage reduction).
package rank

import (
	"math"
	"sort"
	"sync"
)

// Corpus holds term statistics over a set of documents (workflow specs,
// with module keywords as terms). The repository does not keep one: it
// ranks from the inverted index, and Corpus is the reference the tests
// hold those scores to, and what the ranking-leak analyses run on.
//
// Concurrency contract: Corpus is internally synchronized with a
// read/write mutex so Add deltas can be applied while other goroutines
// keep ranking against the same corpus. Readers (Rank, Score, TF, IDF)
// take the read lock once per call; Add takes the write lock for the
// duration of one document's delta, so its cost is proportional to that
// document's term count, never to corpus size.
type Corpus struct {
	mu   sync.RWMutex
	docs map[string]map[string]int // doc -> term -> count
	df   map[string]int            // term -> #docs containing it
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{docs: make(map[string]map[string]int), df: make(map[string]int)}
}

// Add indexes a document's terms (duplicates increase term frequency).
// Adding the same doc id again replaces it.
func (c *Corpus) Add(docID string, terms []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeLocked(docID)
	m := make(map[string]int)
	for _, t := range terms {
		m[t]++
	}
	c.docs[docID] = m
	for t := range m {
		c.df[t]++
	}
}

// removeLocked drops docID's contribution to docs and df. Caller holds
// the write lock.
func (c *Corpus) removeLocked(docID string) {
	old, ok := c.docs[docID]
	if !ok {
		return
	}
	for t := range old {
		c.df[t]--
		if c.df[t] == 0 {
			delete(c.df, t)
		}
	}
	delete(c.docs, docID)
}

// TF returns the raw term frequency of term in doc.
func (c *Corpus) TF(docID, term string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.docs[docID][term]
}

// IDF returns log(1 + N/df). Terms absent everywhere get 0.
func (c *Corpus) IDF(term string) float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idfLocked(term)
}

func (c *Corpus) idfLocked(term string) float64 {
	return IDF(len(c.docs), c.df[term])
}

// IDF is the inverse document frequency of a term that df of n documents
// contain: log(1 + n/df), and 0 for a term no document contains. It is
// the one formula both Corpus and the inverted index (which serves the
// ranking) score with, so their floats agree bit for bit.
func IDF(n, df int) float64 {
	if df == 0 {
		return 0
	}
	return math.Log(1 + float64(n)/float64(df))
}

// Score is the TF-IDF score of doc for the query: Σ_t tf(d,t)·idf(t).
// Raw tf keeps the score linear in occurrence counts, which is exactly
// what makes exact scores invertible — the leakage the paper describes.
//
//provlint:ignore unserved reference: matches_test.go holds the index's per-spec score to it
func (c *Corpus) Score(docID string, query []string) float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.scoreLocked(docID, query)
}

func (c *Corpus) scoreLocked(docID string, query []string) float64 {
	var s float64
	for _, t := range query {
		s += float64(c.docs[docID][t]) * c.idfLocked(t)
	}
	return s
}

// Ranked is one entry of a ranking.
type Ranked struct {
	Doc   string
	Score float64
}

// Sort orders a ranking by descending score, ties broken by doc id.
func Sort(rs []Ranked) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return rs[i].Doc < rs[j].Doc
	})
}

// Rank scores every document and returns them by descending score
// (ties broken by doc id), dropping zero-score documents. The whole pass
// runs under one read lock, so a concurrent delta is either entirely
// visible or entirely absent from the ranking.
func (c *Corpus) Rank(query []string) []Ranked {
	c.mu.RLock()
	var out []Ranked
	for d := range c.docs {
		if s := c.scoreLocked(d, query); s > 0 {
			out = append(out, Ranked{Doc: d, Score: s})
		}
	}
	c.mu.RUnlock()
	Sort(out)
	return out
}

// Bucketize quantizes scores into nBuckets equal-width buckets over the
// observed range, replacing each score with its bucket's midpoint. The
// mapping is deterministic (no noise), so repeated queries return the
// same ranking — the reproducibility requirement that rules out naive
// differential privacy (Section 5).
func Bucketize(rs []Ranked, nBuckets int) []Ranked {
	if len(rs) == 0 || nBuckets < 1 {
		return rs
	}
	lo, hi := rs[len(rs)-1].Score, rs[0].Score
	width := (hi - lo) / float64(nBuckets)
	out := make([]Ranked, len(rs))
	for i, r := range rs {
		b := 0
		if width > 0 {
			b = int((r.Score - lo) / width)
			if b >= nBuckets {
				b = nBuckets - 1
			}
		}
		out[i] = Ranked{Doc: r.Doc, Score: lo + (float64(b)+0.5)*width}
	}
	// Re-sort: bucketing can merge scores; keep doc-id tie-break.
	Sort(out)
	return out
}

// InvertTF is the frequency-inference attack: given a published score
// for a single-term query and the public IDF of the term, estimate the
// term count in the document. With exact scores the estimate is exact.
//
//provlint:ignore unserved reference: the inversion step of FrequencyAttack, the adversary Bucketize is measured against (rank_test.go)
func InvertTF(score, idf float64) float64 {
	if idf == 0 {
		return 0
	}
	return score / idf
}

// AttackReport quantifies what the attack recovers.
type AttackReport struct {
	Docs       int     // documents attacked
	ExactHits  int     // counts recovered exactly
	MeanAbsErr float64 // mean |estimated − true|
}

// FrequencyAttack runs the inversion attack for a single term against
// published scores, comparing with the true counts in the (full,
// pre-privacy) corpus.
//
//provlint:ignore unserved reference: the adversary rank_test.go and root B6 measure Bucketize, the served buckets= defence, against
func FrequencyAttack(trueCorpus *Corpus, published []Ranked, term string) AttackReport {
	idf := trueCorpus.IDF(term)
	var rep AttackReport
	var sumErr float64
	for _, r := range published {
		est := InvertTF(r.Score, idf)
		truth := float64(trueCorpus.TF(r.Doc, term))
		err := math.Abs(est - truth)
		sumErr += err
		if err < 0.5 {
			rep.ExactHits++
		}
		rep.Docs++
	}
	if rep.Docs > 0 {
		rep.MeanAbsErr = sumErr / float64(rep.Docs)
	}
	return rep
}

// KendallTau measures rank agreement between two rankings of the same
// documents, in [−1, 1]. Pairs tied (equal score) in either ranking are
// excluded from both numerator and denominator (Goodman–Kruskal gamma),
// so a bucketed ranking is not penalized for the order of documents
// within one bucket. Documents missing from either ranking are ignored.
//
//provlint:ignore unserved reference: the rank-quality cost of Bucketize that rank_test.go and root B6 measure
func KendallTau(a, b []Ranked) float64 {
	scoreA := make(map[string]float64, len(a))
	for _, r := range a {
		scoreA[r.Doc] = r.Score
	}
	scoreB := make(map[string]float64, len(b))
	for _, r := range b {
		scoreB[r.Doc] = r.Score
	}
	var common []string
	for _, r := range a {
		if _, ok := scoreB[r.Doc]; ok {
			common = append(common, r.Doc)
		}
	}
	n := len(common)
	if n < 2 {
		return 1
	}
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			da := scoreA[common[i]] - scoreA[common[j]]
			db := scoreB[common[i]] - scoreB[common[j]]
			switch {
			case da == 0 || db == 0:
				// tie in either ranking: excluded
			case (da > 0) == (db > 0):
				concordant++
			default:
				discordant++
			}
		}
	}
	if concordant+discordant == 0 {
		return 1
	}
	return float64(concordant-discordant) / float64(concordant+discordant)
}
