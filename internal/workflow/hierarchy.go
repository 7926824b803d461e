package workflow

import (
	"fmt"
	"iter"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"provpriv/internal/graph"
)

// Hierarchy is the expansion hierarchy of a specification (Fig. 3 of the
// paper): a tree whose nodes are workflow ids, with W' a child of W when
// some composite module of W expands to W'.
//
// The hierarchy also numbers what a search decides on: its workflows by
// ordinal, the index of the id among the hierarchy's workflow ids in sorted
// order (see Bits), and the spec's modules likewise among the module ids.
type Hierarchy struct {
	Root     string
	parent   map[string]string
	children map[string][]string
	// viaModule records which composite module introduces each child.
	viaModule map[string]string
	// chains resolves a workflow to its root chain, built once in BFS
	// order; len(chains) is len(All()).
	chains map[string]rootChain
	// modules resolves a module id to where the hierarchy places it: what
	// Spec.FindModule answers, without the scan, plus the workflow's chain.
	// It points into placed, the placements by module ordinal.
	modules map[string]*Placement
	placed  []Placement
	// ids[o] is the workflow of ordinal o; via[o] is the ordinal of the
	// composite module introducing it (-1 for the root).
	ids []string
	via []int32
}

// Placement is where the hierarchy puts a module: the module, the workflow
// holding it, and that workflow's root chain — what a search match reads,
// from one lookup. Chain belongs to the hierarchy: read-only.
type Placement struct {
	Module   *Module
	Workflow *Workflow
	// Ord is the module's ordinal (see Hierarchy.ModuleID).
	Ord int32
	// Chain is the root chain of the workflow as workflow ordinals, nil
	// when the workflow is not reachable from the root; Rank is the chain's
	// place among the hierarchy's chains ordered by their "/"-joined ids,
	// the order two chains of equal length are ranked in.
	Chain []int32
	Rank  int32
	// Sub is the ordinal of a composite module's subworkflow, -1 for an
	// atomic module.
	Sub int32
}

// rootChain is the path from the root down to one workflow, as ids and as
// ordinals, and its rank (see Placement.Rank).
type rootChain struct {
	ids  []string
	ords []int32
	rank int32
}

// NewHierarchy derives the expansion hierarchy from a validated spec.
func NewHierarchy(s *Spec) (*Hierarchy, error) {
	h := &Hierarchy{
		Root:      s.Root,
		parent:    make(map[string]string),
		children:  make(map[string][]string),
		viaModule: make(map[string]string),
		modules:   make(map[string]*Placement),
	}
	for _, wid := range s.WorkflowIDs() {
		w := s.Workflows[wid]
		for _, m := range w.Modules {
			if _, dup := h.modules[m.ID]; !dup {
				h.modules[m.ID] = &Placement{Module: m, Workflow: w}
			}
			if m.Kind != Composite {
				continue
			}
			if _, dup := h.parent[m.Sub]; dup {
				return nil, fmt.Errorf("workflow: %s has multiple parents", m.Sub)
			}
			h.parent[m.Sub] = wid
			h.children[wid] = append(h.children[wid], m.Sub)
			h.viaModule[m.Sub] = m.ID
		}
	}
	for wid := range h.children {
		sort.Strings(h.children[wid])
	}
	all := h.All()
	h.ids = slices.Sorted(slices.Values(all))
	h.chains = make(map[string]rootChain, len(all))
	keys := make(map[string]string, len(all))
	for _, wid := range all { // parents come before their children
		o, _ := slices.BinarySearch(h.ids, wid)
		c := rootChain{ids: []string{wid}, ords: []int32{int32(o)}}
		if wid != h.Root {
			up := h.chains[h.parent[wid]]
			c.ids = append(up.ids[:len(up.ids):len(up.ids)], wid)
			c.ords = append(up.ords[:len(up.ords):len(up.ords)], int32(o))
		}
		h.chains[wid], keys[wid] = c, strings.Join(c.ids, "/")
	}
	slices.SortFunc(all, func(a, b string) int { return strings.Compare(keys[a], keys[b]) })
	for rank, wid := range all {
		c := h.chains[wid]
		c.rank = int32(rank)
		h.chains[wid] = c
	}
	mods := slices.Sorted(maps.Keys(h.modules))
	h.placed = make([]Placement, len(mods))
	for m, id := range mods {
		at := &h.placed[m]
		*at = *h.modules[id]
		c := h.chains[at.Workflow.ID]
		at.Ord, at.Chain, at.Rank, at.Sub = int32(m), c.ords, c.rank, h.Ord(at.Module.Sub)
		if at.Module.Kind != Composite {
			at.Sub = -1
		}
		h.modules[id] = at
	}
	h.via = make([]int32, len(h.ids))
	for o, wid := range h.ids {
		h.via[o] = -1
		if m, ok := h.viaModule[wid]; ok {
			h.via[o] = h.modules[m].Ord
		}
	}
	return h, nil
}

// Module returns the module with the given id and the workflow that
// contains it, or (nil, nil): Spec.FindModule's answer from a table built
// with the hierarchy.
func (h *Hierarchy) Module(id string) (*Module, *Workflow) {
	if at := h.modules[id]; at != nil {
		return at.Module, at.Workflow
	}
	return nil, nil
}

// Place returns where the hierarchy puts the module with the given id, nil
// if there is none. The placement belongs to the hierarchy: read-only.
func (h *Hierarchy) Place(id string) *Placement { return h.modules[id] }

// Placed returns the placement of the module of ordinal m (see ModuleID),
// 0 ≤ m < Modules().
func (h *Hierarchy) Placed(m int32) *Placement { return &h.placed[m] }

// Modules returns the number of module ordinals.
func (h *Hierarchy) Modules() int { return len(h.placed) }

// Parent returns the parent workflow of wid ("" for the root).
func (h *Hierarchy) Parent(wid string) string { return h.parent[wid] }

// ViaModule returns the composite module whose expansion introduces wid.
func (h *Hierarchy) ViaModule(wid string) string { return h.viaModule[wid] }

// Chain returns the workflow ids on the path from the root down to wid,
// both included, or nil if wid is not reachable from the root. The slice
// belongs to the hierarchy: read-only.
func (h *Hierarchy) Chain(wid string) []string { return h.chains[wid].ids }

// Depth returns the number of edges from the root to wid (root = 0),
// or -1 if wid is not in the hierarchy.
func (h *Hierarchy) Depth(wid string) int { return len(h.chains[wid].ids) - 1 }

// Ord returns the ordinal of workflow wid — the index of its id among the
// hierarchy's workflow ids in sorted order — or -1 if wid is not in the
// hierarchy.
func (h *Hierarchy) Ord(wid string) int32 {
	if c, ok := h.chains[wid]; ok {
		return c.ords[len(c.ords)-1]
	}
	return -1
}

// ID returns the id of the workflow of ordinal o.
func (h *Hierarchy) ID(o int32) string { return h.ids[o] }

// ModuleID returns the id of the module of ordinal m: the index of the id
// among the spec's module ids in sorted order.
func (h *Hierarchy) ModuleID(m int32) string { return h.placed[m].Module.ID }

// Via returns the ordinal of the composite module whose expansion
// introduces the workflow of ordinal o, -1 for the root.
func (h *Hierarchy) Via(o int32) int32 { return h.via[o] }

// All returns every workflow id in the hierarchy in BFS order from the
// root.
func (h *Hierarchy) All() []string {
	var out []string
	queue := []string{h.Root}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		out = append(out, w)
		queue = append(queue, h.children[w]...)
	}
	return out
}

// Size returns the number of workflows in the hierarchy — len(All())
// without building the list, for the "is this prefix the full
// expansion?" test every enforced view makes.
func (h *Hierarchy) Size() int { return len(h.chains) }

// Graph returns the hierarchy as a directed graph (parent -> child).
func (h *Hierarchy) Graph() *graph.Graph {
	g := graph.New()
	for _, w := range h.All() {
		g.AddNode(w)
	}
	for _, w := range h.All() {
		for _, c := range h.children[w] {
			g.AddEdge(g.Lookup(w), g.Lookup(c))
		}
	}
	return g
}

// ASCII renders the hierarchy as an indented tree (regenerates Fig. 3).
func (h *Hierarchy) ASCII() string {
	var b strings.Builder
	var walk func(wid string, depth int)
	walk = func(wid string, depth int) {
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", depth), wid)
		for _, c := range h.children[wid] {
			walk(c, depth+1)
		}
	}
	walk(h.Root, 0)
	return b.String()
}

// Prefix is a prefix of the expansion hierarchy: a set of workflow ids
// containing the root and closed under parents. Per the paper, a prefix
// determines a view of the specification in which exactly the composite
// modules whose subworkflow is in the prefix are replaced by their
// expansions.
type Prefix map[string]bool

// NewPrefix builds a Prefix from workflow ids.
func NewPrefix(ids ...string) Prefix {
	p := make(Prefix, len(ids))
	for _, id := range ids {
		p[id] = true
	}
	return p
}

// Contains reports whether wid is in the prefix.
func (p Prefix) Contains(wid string) bool { return p[wid] }

// IDs returns the prefix's workflow ids in sorted order.
func (p Prefix) IDs() []string {
	out := make([]string, 0, len(p))
	for id := range p {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Key returns a canonical string for the prefix, for use as a cache key:
// the sorted ids, each %q-quoted, so no id can forge a separator and equal
// prefixes — however they were arrived at — have equal keys.
func (p Prefix) Key() string { return fmt.Sprintf("%q", p.IDs()) }

// Validate checks that p is a legal prefix of h: non-empty, contains the
// root, every member's parent is a member, and every member exists.
func (p Prefix) Validate(h *Hierarchy) error {
	if !p[h.Root] {
		return fmt.Errorf("workflow: prefix must contain root %s", h.Root)
	}
	for wid := range p {
		if wid == h.Root {
			continue
		}
		parent, ok := h.parent[wid]
		if !ok {
			return fmt.Errorf("workflow: prefix member %s not in hierarchy", wid)
		}
		if !p[parent] {
			return fmt.Errorf("workflow: prefix not closed: %s present but parent %s absent", wid, parent)
		}
	}
	return nil
}

// FullPrefix returns the prefix containing every workflow (the full
// expansion view).
func FullPrefix(h *Hierarchy) Prefix {
	p := make(Prefix)
	for _, w := range h.All() {
		p[w] = true
	}
	return p
}

// Bits is a set of a hierarchy's workflows by ordinal (Hierarchy.Ord): a
// prefix as a search decides it, tested and grown without hashing an id.
// Members iterate in ascending ordinal, which is Prefix.IDs order.
type Bits []uint64

// NewBits returns an empty set sized for h.
func (h *Hierarchy) NewBits() Bits { return make(Bits, (len(h.ids)+63)/64) }

// Has reports whether the workflow of ordinal o is in b (never for o < 0).
func (b Bits) Has(o int32) bool {
	return o >= 0 && int(o>>6) < len(b) && b[o>>6]&(1<<(o&63)) != 0
}

// Set adds the workflow of ordinal o to b.
func (b Bits) Set(o int32) { b[o>>6] |= 1 << (o & 63) }

// All yields b's ordinals in ascending order.
func (b Bits) All() iter.Seq[int32] {
	return func(yield func(int32) bool) {
		for w, word := range b {
			for word != 0 {
				if !yield(int32(w<<6 + bits.TrailingZeros64(word))) {
					return
				}
				word &= word - 1
			}
		}
	}
}

// Bits returns the members of p in h as a set of ordinals; ids p holds
// that h does not are left out.
func (h *Hierarchy) Bits(p Prefix) Bits {
	b := h.NewBits()
	for wid, in := range p {
		if o := h.Ord(wid); in && o >= 0 {
			b.Set(o)
		}
	}
	return b
}

// Prefix returns the workflows of b as a Prefix.
func (h *Hierarchy) Prefix(b Bits) Prefix {
	p := make(Prefix)
	for o := range b.All() {
		p[h.ids[o]] = true
	}
	return p
}

// Prefixes enumerates every legal prefix of h. The count is exponential
// in the hierarchy size; callers should bound the hierarchy.
//
//provlint:ignore unserved test support: root, exec, search and workflow tests enumerate every prefix (bench_test.go, view_test.go, shown_test.go)
func Prefixes(h *Hierarchy) []Prefix {
	all := h.All()
	// Order children after parents (BFS already does), then do a simple
	// recursive inclusion respecting the parent-closure constraint.
	var out []Prefix
	var rec func(i int, cur Prefix)
	rec = func(i int, cur Prefix) {
		if i == len(all) {
			cp := make(Prefix, len(cur))
			for k := range cur {
				cp[k] = true
			}
			out = append(out, cp)
			return
		}
		wid := all[i]
		if wid == h.Root {
			cur[wid] = true
			rec(i+1, cur)
			return
		}
		// Exclude wid (and implicitly its descendants, handled by the
		// parent check below).
		rec(i+1, cur)
		if cur[h.parent[wid]] {
			cur[wid] = true
			rec(i+1, cur)
			delete(cur, wid)
		}
	}
	rec(0, make(Prefix))
	return out
}
