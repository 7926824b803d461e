package exec

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"

	"provpriv/internal/graph"
)

// An execution mirrors the workflow graph (Section 2), so the runs of one
// specification are, as a rule, the same graph carrying different values.
// The shape of an execution is everything about it but those values: its
// nodes (id, module, proc, kind, frames), its edges (from, to, item ids)
// and every item's (id, attr, producer), in the order the execution lists
// them. Whatever is derived from an execution without reading an item's
// Value or Redacted — a collapsed view, its graph and closure, which item
// descends from which — is the same for every execution of a shape, and
// may be computed once and shared among them.

// SameShape reports whether a and b differ in item values at most.
func SameShape(a, b *Execution) bool {
	if len(a.Nodes) != len(b.Nodes) || len(a.Edges) != len(b.Edges) || len(a.Items) != len(b.Items) {
		return false
	}
	for i, n := range a.Nodes {
		m := b.Nodes[i]
		if n.ID != m.ID || n.Module != m.Module || n.Proc != m.Proc || n.Kind != m.Kind || !slices.Equal(n.Frames, m.Frames) {
			return false
		}
	}
	for i, ed := range a.Edges {
		o := b.Edges[i]
		if ed.From != o.From || ed.To != o.To || !slices.Equal(ed.Items, o.Items) {
			return false
		}
	}
	for id, it := range a.Items {
		o := b.Items[id]
		if o == nil || it.ID != o.ID || it.Attr != o.Attr || it.Producer != o.Producer {
			return false
		}
	}
	return true
}

// Shape is one interned shape: the executions of a Shapes table that are
// SameShape share it, and with it whatever was derived from it — and, once
// stored, the structure itself: every execution a table hands back after the
// first of a shape is a header and a slab of items over the first one's Nodes,
// Edges and id, attr and producer strings.
type Shape struct {
	rep *Execution // the first execution interned with this shape
	// ids are rep's item ids in ItemIDs order: the order of a value vector, on
	// disk (MarshalValues) and in WithValues, and of the ancestry.
	ids []string

	ancOnce sync.Once
	anc     *Ancestry
}

// Rep returns the first execution interned with this shape: the one whose
// structure the others share, and the one a value record names.
func (s *Shape) Rep() *Execution { return s.rep }

// Ancestry returns the shape's item ancestry, derived on first use.
func (s *Shape) Ancestry() *Ancestry {
	s.ancOnce.Do(func() { s.anc = newAncestry(s.rep, s.ids) })
	return s.anc
}

// WithValues returns the execution id of this shape whose items carry values,
// given in the shape's item order, those at the redacted indexes marked
// Redacted. It shares the representative's Nodes, Edges and strings read-only
// and owns its items, carved from one slab. Nothing structural is taken from
// the caller, so there is nothing to validate beyond the vector itself.
func (s *Shape) WithValues(id string, values []Value, redacted []int) (*Execution, error) {
	if len(values) != len(s.ids) {
		return nil, fmt.Errorf("exec: %s carries %d values, the shape of %s has %d items", id, len(values), s.rep.ID, len(s.ids))
	}
	out := &Execution{ID: id, SpecID: s.rep.SpecID, Nodes: s.rep.Nodes, Edges: s.rep.Edges, Items: make(map[string]*DataItem, len(s.ids))}
	slab := make([]DataItem, len(s.ids))
	for i, iid := range s.ids {
		it := s.rep.Items[iid]
		slab[i] = DataItem{ID: it.ID, Attr: it.Attr, Value: values[i], Producer: it.Producer}
		out.Items[it.ID] = &slab[i]
	}
	for _, i := range redacted {
		if i < 0 || i >= len(slab) {
			return nil, fmt.Errorf("exec: %s redacts item %d of %d", id, i, len(slab))
		}
		slab[i].Redacted = true
	}
	return out, nil
}

// vector returns e's values and redacted indexes in the shape's item order.
// e must be of this shape.
func (s *Shape) vector(e *Execution) (values []Value, redacted []int) {
	values = make([]Value, len(s.ids))
	for i, id := range s.ids {
		it := e.Items[id]
		values[i] = it.Value
		if it.Redacted {
			redacted = append(redacted, i)
		}
	}
	return values, redacted
}

// valueRecord is the stored form of an execution that is not the first of
// its shape in its store: the id of one that is, and the value vector. The
// execution's own id is the record's key.
type valueRecord struct {
	Like     string  `json:"like"`
	Values   []Value `json:"values"`
	Redacted []int   `json:"redacted,omitempty"`
}

// MarshalValues serializes e, an execution of this shape, as a value record
// naming the shape's representative.
func (s *Shape) MarshalValues(e *Execution) ([]byte, error) {
	rec := valueRecord{Like: s.rep.ID}
	rec.Values, rec.Redacted = s.vector(e)
	return json.Marshal(rec)
}

// Shapes interns the executions of one specification by shape. It is not
// safe for concurrent use: internal/repo keeps one per shard, under the
// shard's lock. Executions are only ever added, like the shard's.
type Shapes struct {
	seed   maphash.Seed
	byHash map[uint64][]*Shape
	of     map[*Execution]*Shape
	n      int
	// values is UnmarshalValues' vector, reused: WithValues copies it.
	values []Value
}

// NewShapes returns an empty table.
func NewShapes() *Shapes {
	return &Shapes{seed: maphash.MakeSeed(), byHash: make(map[uint64][]*Shape), of: make(map[*Execution]*Shape)}
}

// Intern files e under its shape and returns the execution to store for it:
// e itself when it is the first of its shape, otherwise a copy that shares
// the shape's structure (WithValues). e is only read, and must not change
// shape afterwards when it is the one kept (stored executions are read-only).
// A fingerprint over the shape's fields finds the candidates and SameShape
// accepts one, so two shapes that collide cost a comparison and never share.
func (t *Shapes) Intern(e *Execution) *Execution {
	fp := t.fingerprint(e)
	for _, s := range t.byHash[fp] {
		if SameShape(s.rep, e) {
			values, redacted := s.vector(e)
			stored, _ := s.WithValues(e.ID, values, redacted) // the vector is s's own: it fits
			t.of[stored] = s
			return stored
		}
	}
	s := &Shape{rep: e, ids: e.ItemIDs()}
	t.byHash[fp] = append(t.byHash[fp], s)
	t.of[e] = s
	t.n++
	return e
}

// UnmarshalValues parses a value record (MarshalValues) as the execution id
// and files it under the shape of the execution the record names, looked up
// in stored, without comparing anything: the record carries no structure. A
// record that names no stored execution, or whose vector does not fit the
// shape, is refused.
func (t *Shapes) UnmarshalValues(id string, data []byte, stored map[string]*Execution) (*Execution, error) {
	rec, err := decodeValueRecord(data, t.values)
	if err != nil {
		return nil, fmt.Errorf("exec: decode values of %s: %w", id, err)
	}
	t.values = rec.Values
	s := t.of[stored[rec.Like]]
	if s == nil {
		return nil, fmt.Errorf("exec: values of %s name %q, which is not stored", id, rec.Like)
	}
	e, err := s.WithValues(id, rec.Values, rec.Redacted)
	if err != nil {
		return nil, err
	}
	t.of[e] = s
	return e, nil
}

// Of returns the shape a stored execution was interned under, or nil.
func (t *Shapes) Of(e *Execution) *Shape { return t.of[e] }

// Len returns the number of distinct shapes interned.
func (t *Shapes) Len() int { return t.n }

// fingerprint hashes the fields SameShape compares. Items are a map, so
// their hashes are summed; the rest is hashed in order.
func (t *Shapes) fingerprint(e *Execution) uint64 {
	var h maphash.Hash
	h.SetSeed(t.seed)
	for _, n := range e.Nodes {
		h.WriteString(n.ID)
		h.WriteString(n.Module)
		h.WriteString(n.Proc)
		h.WriteByte(byte(n.Kind))
		for _, f := range n.Frames {
			h.WriteString(f.Proc)
			h.WriteString(f.Module)
			h.WriteString(f.Sub)
		}
		h.WriteByte(0)
	}
	for _, ed := range e.Edges {
		h.WriteString(ed.From)
		h.WriteString(ed.To)
		for _, it := range ed.Items {
			h.WriteString(it)
		}
		h.WriteByte(0)
	}
	sum := h.Sum64()
	for id, it := range e.Items {
		sum += maphash.String(t.seed, id) ^ 3*maphash.String(t.seed, it.Attr) ^ 5*maphash.String(t.seed, it.Producer)
	}
	return sum
}

// Blank clears every item's Value and Redacted, leaving e's shape: what a
// view shared among the executions of a shape keeps, so that no value of
// one is reachable from another's snapshot. The caller owns e.
func (e *Execution) Blank() {
	for _, it := range e.Items {
		it.Value, it.Redacted = "", false
	}
}

// WithValuesOf returns view — a (blank) view collapsed from an execution
// of src's shape — carrying src's values: what CollapseIn(src, …) under
// the same prefix returns, without collapsing again. The result is a fresh
// header over view's Nodes and Edges, which it shares read-only, and its
// own items, carved from one slab, which the caller may mask in place.
func (view *Execution) WithValuesOf(src *Execution) (*Execution, error) {
	out := &Execution{
		ID:     src.ID + "/view",
		SpecID: src.SpecID,
		Nodes:  view.Nodes,
		Edges:  view.Edges,
		Items:  make(map[string]*DataItem, len(view.Items)),
	}
	slab := make([]DataItem, 0, len(view.Items))
	for id, it := range view.Items {
		from := src.Items[id]
		if from == nil {
			return nil, fmt.Errorf("exec: %s has no item %q: not the shape the view was collapsed from", src.ID, id)
		}
		slab = append(slab, DataItem{ID: id, Attr: it.Attr, Value: from.Value, Producer: it.Producer, Redacted: from.Redacted})
		out.Items[id] = &slab[len(slab)-1]
	}
	return out, nil
}

// Ancestry is the provenance order among the items of a shape: whether
// the producer of one reaches the producer of another. It is what taint
// analysis (internal/taint) needs of an execution's structure.
type Ancestry struct {
	// IDs are the shape's item ids, in ItemIDs order.
	IDs  []string
	at   map[string]int // the index in IDs of each item id
	prod []graph.NodeID // producer of IDs[i]; Invalid when unknown
	cl   *graph.Closure // nil when the execution graph has a cycle
}

// NewAncestry derives the ancestry of e's shape.
func NewAncestry(e *Execution) *Ancestry { return newAncestry(e, e.ItemIDs()) }

func newAncestry(e *Execution, ids []string) *Ancestry {
	a := &Ancestry{IDs: ids, at: make(map[string]int, len(ids))}
	g := e.Graph()
	a.prod = make([]graph.NodeID, len(a.IDs))
	for i, id := range a.IDs {
		a.at[id] = i
		a.prod[i] = g.Lookup(e.Items[id].Producer)
	}
	a.cl, _ = graph.NewClosure(g) // a cyclic graph leaves cl nil
	return a
}

// Index returns the index in IDs of item id; false when the shape has no
// such item.
func (a *Ancestry) Index(id string) (int, bool) {
	i, ok := a.at[id]
	return i, ok
}

// Descends reports whether item IDs[j] descends from item IDs[i] — the
// producer of i reaches the producer of j — or is i itself. With a cyclic
// graph (validated executions have none) every item is taken to descend
// from every other: privacy over utility.
func (a *Ancestry) Descends(i, j int) bool {
	if a.cl == nil {
		return true
	}
	return a.prod[i] >= 0 && a.prod[j] >= 0 && a.cl.Reach(a.prod[i], a.prod[j])
}
