package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"provpriv/internal/exec"
	"provpriv/internal/graph"
	"provpriv/internal/privacy"
	"provpriv/internal/repo"
	"provpriv/internal/storage"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// corpusShape sizes corpus-v1. The wide specs keep levels × executions
// (4 × 24 = 96 masked-snapshot keys per shard) far below the per-shard
// LRU cap of 1024, so they can be fully resident; each deep spec holds
// more executions than that cap, so a sequential one-level walk never
// hits shard.masked, shard.views or shard.taints.
type corpusShape struct {
	wideSpecs, wideExecs int
	deepSpecs, deepExecs int
	churned              int // wide-0..churned-1 get a second policy variant
}

var (
	fullShape  = corpusShape{wideSpecs: 48, wideExecs: 24, deepSpecs: 2, deepExecs: 1100, churned: 8}
	quickShape = corpusShape{wideSpecs: 6, wideExecs: 4, deepSpecs: 2, deepExecs: 12, churned: 2}
)

// levels are the four access levels the principals sit at.
var levels = []privacy.Level{privacy.Public, privacy.Registered, privacy.Analyst, privacy.Owner}

// specEntry is everything the generator and the oracle know about one
// specification: the policies an answer may have been produced under
// (one, or two for specs under policy churn), the executions with their
// raw values, and per-policy/per-level visibility.
type specEntry struct {
	spec  *workflow.Spec
	hier  *workflow.Hierarchy
	pols  []*privacy.Policy
	execs []*exec.Execution
	byID  map[string]*exec.Execution

	// moduleWorkflow maps a module id to the workflow that contains it.
	moduleWorkflow map[string]string
	// ancestors maps an item id to the ids of the items it was derived
	// from (the producer of the ancestor reaches the producer of the
	// item). Executions of one spec share their structure, so the
	// relation is computed once, on the first execution.
	ancestors map[string][]string
	// visible[p][level] lists the item ids of the collapsed view under
	// policy p at that level, in item order.
	visible [][][]string
}

type corpus struct {
	shape corpusShape
	specs map[string]*specEntry
	wide  []string // wide-0..N-1
	deep  []string // deep-0..N-1
}

func specConfig(id string, seed int64) workload.SpecConfig {
	return workload.SpecConfig{Seed: seed, ID: id, Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.3}
}

// newSpecEntry generates one spec with its policy from a seed and
// derives the oracle's lookup tables.
func newSpecEntry(id string, seed int64) (*specEntry, error) {
	spec, err := workload.RandomSpec(specConfig(id, seed))
	if err != nil {
		return nil, err
	}
	pol, err := workload.RandomPolicy(spec, seed)
	if err != nil {
		return nil, err
	}
	hier, err := workflow.NewHierarchy(spec)
	if err != nil {
		return nil, err
	}
	se := &specEntry{spec: spec, hier: hier, pols: []*privacy.Policy{pol},
		byID: map[string]*exec.Execution{}, moduleWorkflow: map[string]string{}}
	for _, wid := range spec.WorkflowIDs() {
		for _, m := range spec.Workflows[wid].Modules {
			se.moduleWorkflow[m.ID] = wid
		}
	}
	return se, nil
}

func (se *specEntry) run(execID string, seed int64) (*exec.Execution, error) {
	return exec.NewRunner(se.spec, nil).Run(execID, workload.RandomInputs(se.spec, seed))
}

// deriveTables fills ancestors and visible from the first execution.
func (se *specEntry) deriveTables() error {
	e := se.execs[0]
	g := e.Graph()
	cl, err := graph.NewClosure(g)
	if err != nil {
		return err
	}
	ids := e.ItemIDs()
	se.ancestors = make(map[string][]string, len(ids))
	for _, id := range ids {
		prod := g.Lookup(e.Items[id].Producer)
		for _, anc := range ids {
			from := g.Lookup(e.Items[anc].Producer)
			if anc != id && from >= 0 && prod >= 0 && from != prod && cl.Reach(from, prod) {
				se.ancestors[id] = append(se.ancestors[id], anc)
			}
		}
	}
	se.visible = make([][][]string, len(se.pols))
	for p, pol := range se.pols {
		se.visible[p] = make([][]string, len(levels))
		for _, l := range levels {
			vis, err := exec.VisibleItems(e, se.spec, pol.AccessView(se.hier, l))
			if err != nil {
				return err
			}
			se.visible[p][l] = vis
		}
	}
	return nil
}

// structureSeed fixes the specifications and policies of corpus-v1. They
// are part of the benchmark's definition, like a schema: two deep specs
// (and eight churned ones) are too few to average out, so letting the
// run's seed redraw them moved every metric by 10–20 % from seed to seed
// and no bound could hold. The run's seed draws what flows through them:
// every execution's inputs and all traffic.
const structureSeed = 1

// generateCorpus builds corpus-v1: structure from structureSeed,
// execution inputs from the seed, so the same seed gives the same corpus.
func generateCorpus(shape corpusShape, seed int64) (*corpus, error) {
	c := &corpus{shape: shape, specs: map[string]*specEntry{}}
	add := func(prefix string, n, execs int, base int64) ([]string, error) {
		var ids []string
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("%s-%d", prefix, i)
			specSeed := structureSeed*100003 + base + int64(i)
			se, err := newSpecEntry(id, specSeed)
			if err != nil {
				return nil, fmt.Errorf("spec %s: %w", id, err)
			}
			if prefix == "wide" && i < shape.churned {
				alt, err := workload.RandomPolicy(se.spec, specSeed+50000)
				if err != nil {
					return nil, fmt.Errorf("policy variant %s: %w", id, err)
				}
				se.pols = append(se.pols, alt)
			}
			for j := 0; j < execs; j++ {
				e, err := se.run(fmt.Sprintf("%s-E%d", id, j), (seed*100003+base+int64(i))*4099+int64(j))
				if err != nil {
					return nil, fmt.Errorf("run %s/%d: %w", id, j, err)
				}
				se.execs = append(se.execs, e)
				se.byID[e.ID] = e
			}
			if err := se.deriveTables(); err != nil {
				return nil, fmt.Errorf("tables %s: %w", id, err)
			}
			c.specs[id] = se
			ids = append(ids, id)
		}
		return ids, nil
	}
	var err error
	if c.wide, err = add("wide", shape.wideSpecs, shape.wideExecs, 0); err != nil {
		return nil, err
	}
	if c.deep, err = add("deep", shape.deepSpecs, shape.deepExecs, 1000); err != nil {
		return nil, err
	}
	return c, nil
}

// save writes the corpus through a bound repository save on the flat
// backend — byte for byte what a server writes — and returns the size.
func (c *corpus) save(dir string) (int64, error) {
	r := repo.New()
	for _, id := range append(append([]string(nil), c.wide...), c.deep...) {
		se := c.specs[id]
		if err := r.AddSpec(se.spec, se.pols[0]); err != nil {
			return 0, err
		}
		for _, e := range se.execs {
			if err := r.AddExecution(e); err != nil {
				return 0, err
			}
		}
	}
	b, err := storage.OpenFlat(dir)
	if err != nil {
		return 0, err
	}
	if err := r.BindStorage(b, dir); err != nil {
		b.Close()
		return 0, err
	}
	if err := r.Save(dir); err != nil {
		return 0, err
	}
	if err := r.CloseStorage(); err != nil {
		return 0, err
	}
	return dirSize(dir)
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return err
	})
	return total, err
}

// copyDir copies a flat data directory (regular files only, one level).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// hiddenItem names an item of the execution that no policy variant
// shows at the level, or an id that does not exist when the level sees
// everything; the server answers 403 for both (no existence oracle).
func (se *specEntry) hiddenItem(level privacy.Level, pick int) string {
	shown := map[string]bool{}
	for p := range se.pols {
		for _, id := range se.visible[p][level] {
			shown[id] = true
		}
	}
	var hidden []string
	for id := range se.execs[0].Items {
		if !shown[id] {
			hidden = append(hidden, id)
		}
	}
	if len(hidden) == 0 {
		return "d99999"
	}
	sort.Strings(hidden)
	return hidden[pick%len(hidden)]
}

// moduleOfNode recovers the module id from an execution node id
// ("S2:M7", "S1:M3-begin", or a bare module id at the root).
func moduleOfNode(nodeID string) string {
	if i := strings.LastIndexByte(nodeID, ':'); i >= 0 {
		nodeID = nodeID[i+1:]
	}
	nodeID = strings.TrimSuffix(nodeID, "-begin")
	return strings.TrimSuffix(nodeID, "-end")
}
