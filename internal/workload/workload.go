// Package workload generates synthetic workflow specifications,
// executions, module implementations and query streams for tests and
// benchmarks. It substitutes for the real scientific-workflow
// repositories (myGrid/Taverna-style) the paper assumes but which are
// not available here: generated specs exercise the same shapes —
// hierarchical DAGs with τ-expansions, keyword-bearing module names,
// chains with skip edges — with seeded determinism so every benchmark
// run is reproducible.
package workload

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"provpriv/internal/exec"
	"provpriv/internal/graph"
	"provpriv/internal/modpriv"
	"provpriv/internal/workflow"
)

// DefaultVocab is the keyword vocabulary used for module names,
// loosely themed on the paper's life-sciences domain.
func DefaultVocab() []string {
	return []string{
		"align", "annotate", "archive", "assemble", "calibrate", "cluster",
		"combine", "compare", "database", "disorder", "expand", "extract",
		"filter", "format", "genome", "genotype", "index", "lifestyle",
		"merge", "normalize", "ontology", "parse", "pathway", "phenotype",
		"predict", "private", "profile", "prognosis", "protein", "pubmed",
		"query", "rank", "reformat", "risk", "sample", "search", "sequence",
		"snp", "summarize", "validate", "variant",
	}
}

// ZipfPick draws a vocabulary index with a Zipf(1) distribution:
// rank r is drawn with probability proportional to 1/(r+1).
func ZipfPick(rng *rand.Rand, n int) int {
	// Cumulative harmonic weights; n is small so linear scan is fine.
	var total float64
	for r := 0; r < n; r++ {
		total += 1 / float64(r+1)
	}
	x := rng.Float64() * total
	for r := 0; r < n; r++ {
		x -= 1 / float64(r+1)
		if x <= 0 {
			return r
		}
	}
	return n - 1
}

// SpecConfig parameterizes RandomSpec.
type SpecConfig struct {
	Seed     int64
	ID       string
	Depth    int      // expansion-hierarchy depth; 1 = no composites
	Fanout   int      // composite modules per workflow (at depth < Depth)
	Chain    int      // modules per workflow chain (≥ 2 at depth < Depth)
	SkipProb float64  // probability of extra skip edges within a chain
	Vocab    []string // defaults to DefaultVocab
}

func (c *SpecConfig) normalize() error {
	if c.ID == "" {
		c.ID = fmt.Sprintf("synth-%d", c.Seed)
	}
	if c.Depth < 1 {
		return fmt.Errorf("workload: depth %d < 1", c.Depth)
	}
	if c.Chain < 1 {
		return fmt.Errorf("workload: chain %d < 1", c.Chain)
	}
	if c.Fanout < 0 || c.Fanout > c.Chain {
		return fmt.Errorf("workload: fanout %d outside [0,%d]", c.Fanout, c.Chain)
	}
	if c.Vocab == nil {
		c.Vocab = DefaultVocab()
	}
	return nil
}

type specGen struct {
	cfg   SpecConfig
	rng   *rand.Rand
	spec  *workflow.Spec
	wfN   int
	modN  int
	attrN int
}

// RandomSpec generates a validated hierarchical specification: every
// workflow is a chain of Chain modules with optional skip edges; at
// depths below Depth, Fanout of the chain modules are composite and
// expand into child workflows, giving a (Fanout^Depth)-ish hierarchy.
func RandomSpec(cfg SpecConfig) (*workflow.Spec, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	g := &specGen{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		spec: &workflow.Spec{ID: cfg.ID, Name: "Synthetic " + cfg.ID, Workflows: map[string]*workflow.Workflow{}},
	}
	rootIn := g.freshAttr("in")
	rootOut := g.freshAttr("out")
	rootID := g.genWorkflow(1, rootIn, rootOut, true)
	g.spec.Root = rootID
	if err := g.spec.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated invalid spec: %w", err)
	}
	return g.spec, nil
}

func (g *specGen) freshAttr(prefix string) string {
	g.attrN++
	return fmt.Sprintf("%s%d", prefix, g.attrN)
}

func (g *specGen) name() string {
	v := g.cfg.Vocab
	w1 := v[ZipfPick(g.rng, len(v))]
	w2 := v[ZipfPick(g.rng, len(v))]
	return capitalize(w1) + " " + capitalize(w2)
}

func capitalize(s string) string {
	if s == "" {
		return s
	}
	b := []byte(s)
	if b[0] >= 'a' && b[0] <= 'z' {
		b[0] -= 'a' - 'A'
	}
	return string(b)
}

// genWorkflow creates one workflow consuming inAttr and producing
// outAttr, recursing for composite members, and returns its id.
func (g *specGen) genWorkflow(depth int, inAttr, outAttr string, root bool) string {
	g.wfN++
	wid := fmt.Sprintf("W%d", g.wfN)
	w := &workflow.Workflow{ID: wid, Name: "Workflow " + wid}
	g.spec.Workflows[wid] = w

	n := g.cfg.Chain
	// Choose which chain positions become composite.
	composite := make(map[int]bool)
	if depth < g.cfg.Depth {
		perm := g.rng.Perm(n)
		for i := 0; i < g.cfg.Fanout && i < len(perm); i++ {
			composite[perm[i]] = true
		}
	}
	// Chain attrs: a0 = inAttr, a_n = outAttr.
	attrs := make([]string, n+1)
	attrs[0] = inAttr
	attrs[n] = outAttr
	for i := 1; i < n; i++ {
		attrs[i] = g.freshAttr(wid + "a")
	}
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		g.modN++
		ids[i] = fmt.Sprintf("M%d", g.modN)
		ins := []string{attrs[i]}
		outs := []string{attrs[i+1]}
		if composite[i] {
			sub := g.genWorkflow(depth+1, attrs[i], attrs[i+1], false)
			w.Modules = append(w.Modules, &workflow.Module{
				ID: ids[i], Name: g.name(), Kind: workflow.Composite, Sub: sub,
				Inputs: ins, Outputs: outs,
			})
		} else {
			w.Modules = append(w.Modules, &workflow.Module{
				ID: ids[i], Name: g.name(), Kind: workflow.Atomic,
				Inputs: ins, Outputs: outs,
			})
		}
	}
	for i := 0; i+1 < n; i++ {
		w.Edges = append(w.Edges, workflow.Edge{From: ids[i], To: ids[i+1], Data: []string{attrs[i+1]}})
	}
	// Skip edges between atomic modules (composites keep clean
	// boundaries so entries/exits stay well-defined).
	for i := 0; i < n; i++ {
		for j := i + 2; j < n; j++ {
			if composite[i] || composite[j] || g.rng.Float64() >= g.cfg.SkipProb {
				continue
			}
			a := g.freshAttr(wid + "s")
			mi, mj := w.Modules[i], w.Modules[j]
			mi.Outputs = append(mi.Outputs, a)
			mj.Inputs = append(mj.Inputs, a)
			w.Edges = append(w.Edges, workflow.Edge{From: mi.ID, To: mj.ID, Data: []string{a}})
		}
	}
	if root {
		src := &workflow.Module{ID: "I", Name: "Input", Kind: workflow.Source, Outputs: []string{inAttr}}
		snk := &workflow.Module{ID: "O", Name: "Output", Kind: workflow.Sink, Inputs: []string{outAttr}}
		w.Modules = append([]*workflow.Module{src}, w.Modules...)
		w.Modules = append(w.Modules, snk)
		w.Edges = append(w.Edges,
			workflow.Edge{From: "I", To: ids[0], Data: []string{inAttr}},
			workflow.Edge{From: ids[n-1], To: "O", Data: []string{outAttr}},
		)
	}
	return wid
}

// RandomInputs builds a Value for every output attribute of the spec's
// source module, deterministically from the seed.
func RandomInputs(s *workflow.Spec, seed int64) map[string]exec.Value {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string]exec.Value)
	for _, m := range s.RootWorkflow().Modules {
		if m.Kind == workflow.Source {
			for _, a := range m.Outputs {
				out[a] = exec.Value(fmt.Sprintf("v%d", rng.Intn(1000)))
			}
		}
	}
	return out
}

// RandomQueries draws n keyword queries (1–2 phrases of 1–2 Zipf terms)
// over the vocabulary.
func RandomQueries(rng *rand.Rand, vocab []string, n int) []string {
	if vocab == nil {
		vocab = DefaultVocab()
	}
	out := make([]string, n)
	for i := range out {
		var phrases []string
		for p := 0; p < 1+rng.Intn(2); p++ {
			t1 := vocab[ZipfPick(rng, len(vocab))]
			if rng.Intn(2) == 0 {
				phrases = append(phrases, t1)
			} else {
				phrases = append(phrases, t1+" "+vocab[ZipfPick(rng, len(vocab))])
			}
		}
		out[i] = strings.Join(phrases, ", ")
	}
	return out
}

// LayeredDAG generates a DAG with the given number of layers and width:
// every node in layer i gets 1–maxIn edges from random nodes of earlier
// layers. Used by the reachability benchmark.
//
//provlint:ignore unserved test support: root BenchmarkReachabilityAblation and workload_test.go build DAGs with it (bench_test.go)
func LayeredDAG(rng *rand.Rand, layers, width, maxIn int) *graph.Graph {
	g := graph.New()
	var all []graph.NodeID
	for l := 0; l < layers; l++ {
		var cur []graph.NodeID
		for i := 0; i < width; i++ {
			id := g.AddNode(fmt.Sprintf("n%d_%d", l, i))
			cur = append(cur, id)
			if l > 0 {
				k := 1 + rng.Intn(maxIn)
				for e := 0; e < k; e++ {
					src := all[rng.Intn(len(all))]
					g.AddEdge(src, id)
				}
			}
		}
		all = append(all, cur...)
	}
	return g
}

// KDomain builds a domain of k values v0..v(k-1) for each attribute.
//
//provlint:ignore unserved test support: root module-privacy benchmarks and workload_test.go build domains with it (bench_test.go)
func KDomain(k int, attrs ...string) modpriv.Domain {
	vals := make([]exec.Value, k)
	for i := range vals {
		vals[i] = exec.Value(fmt.Sprintf("v%d", i))
	}
	d := make(modpriv.Domain, len(attrs))
	for _, a := range attrs {
		d[a] = vals
	}
	return d
}

// RandomTableFunc returns a deterministic pseudo-random module function:
// each output value is chosen from its domain by hashing the seed, the
// sorted input assignment and the output attribute. The same seed always
// yields the same relation — module privacy requires a fixed function.
//
//provlint:ignore unserved ROADMAP item 8 owns the reconstruction adversary's random modules (workload_test.go)
func RandomTableFunc(seed int64, outputs []string, dom modpriv.Domain) exec.Func {
	return func(in map[string]exec.Value) map[string]exec.Value {
		keys := make([]string, 0, len(in))
		for a := range in {
			keys = append(keys, a)
		}
		sort.Strings(keys)
		var sig strings.Builder
		for _, a := range keys {
			sig.WriteString(a)
			sig.WriteByte('=')
			sig.WriteString(string(in[a]))
			sig.WriteByte(';')
		}
		out := make(map[string]exec.Value, len(outputs))
		for _, o := range outputs {
			h := fnv.New64a()
			fmt.Fprintf(h, "%d|%s|%s", seed, sig.String(), o)
			vals := dom[o]
			out[o] = vals[h.Sum64()%uint64(len(vals))]
		}
		return out
	}
}
