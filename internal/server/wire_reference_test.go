package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"provpriv/internal/privacy"
	"provpriv/internal/query"
	"provpriv/internal/repo"
	"provpriv/internal/search"
	"provpriv/internal/workload"
)

// The envelopes /search and /query were written through json.Encoder
// before their bodies were appended, kept as the reference the appended
// bytes are held to.
type searchPage struct {
	Hits   []searchHit `json:"hits"`
	Offset int         `json:"offset"`
	Query  string      `json:"query"`
	Total  int         `json:"total"`
}

type searchHit struct {
	SpecID    string         `json:"spec"`
	Score     float64        `json:"score"`
	Prefix    []string       `json:"prefix"`
	ZoomedOut bool           `json:"zoomed_out,omitempty"`
	Matches   []search.Match `json:"matches"`
}

type queryPage struct {
	Answers []queryAnswer `json:"answers"`
	Offset  int           `json:"offset"`
	Spec    string        `json:"spec"`
	Total   int           `json:"total"`
}

type queryAnswer struct {
	ExecutionID string          `json:"execution"`
	Bindings    []query.Binding `json:"bindings"`
	Nodes       []string        `json:"nodes,omitempty"`
	Downstream  [][]string      `json:"downstream,omitempty"`
	ZoomedOut   bool            `json:"zoomed_out,omitempty"`
	ZoomSteps   int             `json:"zoom_steps,omitempty"`
}

func toWireAnswer(a *query.Answer) queryAnswer {
	return queryAnswer{
		ExecutionID: a.ExecutionID,
		Bindings:    a.Bindings,
		Nodes:       a.Nodes,
		Downstream:  a.Downstream,
		ZoomedOut:   a.ZoomedOut,
	}
}

// encodeReference is what the handlers wrote for v before their bodies
// were appended.
func encodeReference(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wireStrings are ids and values that exercise the escaper: HTML-special
// bytes, control bytes, U+2028/U+2029 and invalid UTF-8.
var wireStrings = []string{"", "E1", "a<b>&c", "q\"uo\\te", "\x00\x1f\t\n", "line\u2028sep\u2029", "\xff\xfe", "é☃", "x/prov(y)"}

// wireScores are the floats encoding/json formats by a rule of its own:
// both sides of 1e-6 and 1e21, negative zero, integers beyond 2^53.
var wireScores = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.99999e-7, 1e-7, 1.5e-300, 1e21, 9.99999e20, 1e22, -1e21, 1 << 60, 123456789012345678, math.MaxFloat64, math.SmallestNonzeroFloat64}

// TestAppendedPagesEncodeAsTheirStructsDid holds appendSearchPage and
// appendQueryPage to json.Encoder over the envelopes they replaced. The
// search hits are real answers — random specs and policies searched at
// every level, zoomed-out matches among them — given random scores; the
// query answers are random, with nil and empty lists, nil bindings,
// multi-key bindings and zoom steps.
func TestAppendedPagesEncodeAsTheirStructsDid(t *testing.T) {
	r := repo.New()
	for i := range 12 {
		s, err := workload.RandomSpec(workload.SpecConfig{Seed: int64(i), ID: fmt.Sprintf("spec-%d", i), Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := workload.RandomPolicy(s, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.AddSpec(s, pol); err != nil {
			t.Fatal(err)
		}
	}
	levels := []privacy.Level{privacy.Public, privacy.Registered, privacy.Analyst, privacy.Owner}
	for _, l := range levels {
		r.AddUser(privacy.User{Name: l.String(), Level: l})
	}
	rng := rand.New(rand.NewSource(45))
	score := func() float64 {
		if rng.Intn(2) == 0 {
			return wireScores[rng.Intn(len(wireScores))]
		}
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return rng.Float64()
		}
		return f
	}
	pick := func() string { return wireStrings[rng.Intn(len(wireStrings))] }

	pages, zoomed := 0, 0
	for _, q := range workload.RandomQueries(rng, nil, 64) {
		for _, l := range levels {
			offset := rng.Intn(3)
			hits, total, err := r.SearchPageCtx(context.Background(), l.String(), q, repo.SearchOptions{Limit: 10, Offset: offset})
			if err != nil {
				t.Fatal(err)
			}
			ref := searchPage{Hits: make([]searchHit, 0, len(hits)), Offset: offset, Query: q + pick(), Total: total}
			for i := range hits {
				hits[i].Score = score()
				if rng.Intn(4) == 0 {
					hits[i].SpecID = pick()
				}
				h := hits[i]
				ref.Hits = append(ref.Hits, searchHit{SpecID: h.SpecID, Score: h.Score, Prefix: h.Result.Prefix().IDs(), ZoomedOut: h.Result.ZoomedOut, Matches: h.Result.Matches})
				for _, m := range h.Result.Matches {
					if m.ZoomedTo != "" {
						zoomed++
					}
				}
			}
			got := appendSearchPage([]byte("junk"), hits, offset, ref.Query, total)[len("junk"):]
			if want := encodeReference(t, ref); !bytes.Equal(got, want) {
				t.Fatalf("query %q at %v:\nappended %s\nencoded  %s", q, l, got, want)
			}
			pages++
		}
	}
	if pages == 0 || zoomed == 0 {
		t.Fatalf("%d search pages, %d zoomed matches: the fixture exercises too little", pages, zoomed)
	}

	strs := func() []string {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []string{}
		}
		out := make([]string, 1+rng.Intn(3))
		for i := range out {
			out[i] = pick()
		}
		return out
	}
	multiKey := 0
	for range 2000 {
		var answers []*query.Answer
		if rng.Intn(5) > 0 {
			answers = make([]*query.Answer, rng.Intn(4))
		}
		steps := []int{0, 0, 1, 3, -2}[rng.Intn(5)]
		ref := queryPage{Answers: make([]queryAnswer, 0, len(answers)), Offset: rng.Intn(3), Spec: pick(), Total: rng.Intn(9)}
		for i := range answers {
			a := &query.Answer{ExecutionID: pick(), Nodes: strs(), ZoomedOut: rng.Intn(2) == 0}
			if n := rng.Intn(4); n > 0 {
				a.Bindings = make([]query.Binding, n-1)
				for j := range a.Bindings {
					if rng.Intn(5) == 0 {
						continue // a nil binding
					}
					a.Bindings[j] = query.Binding{}
					for range rng.Intn(4) {
						a.Bindings[j][pick()+string(rune('a'+rng.Intn(26)))] = pick()
					}
					if len(a.Bindings[j]) > 1 {
						multiKey++
					}
				}
			}
			if rng.Intn(2) == 0 {
				a.Downstream = [][]string{}
				for range rng.Intn(3) {
					a.Downstream = append(a.Downstream, strs())
				}
			}
			answers[i] = a
			wa := toWireAnswer(a)
			wa.ZoomSteps = steps
			ref.Answers = append(ref.Answers, wa)
		}
		got := appendQueryPage(nil, answers, steps, ref.Offset, ref.Spec, ref.Total)
		if want := encodeReference(t, ref); !bytes.Equal(got, want) {
			t.Fatalf("query page:\nappended %s\nencoded  %s", got, want)
		}
	}
	if multiKey == 0 {
		t.Fatal("no multi-key binding was encoded")
	}
}
