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
// stored, the structure itself: a stored execution is its shape and its
// values (Stored), and only the first execution of a shape is kept in full.
type Shape struct {
	rep *Execution // the first execution interned with this shape
	// lay is rep's items in ItemIDs order: the order of a stored vector, on
	// disk (MarshalValues) and in memory, and of the ancestry.
	lay Layout

	ancOnce sync.Once
	anc     *Ancestry
}

func newShape(e *Execution) *Shape {
	s := &Shape{rep: e, lay: Layout{IDs: e.ItemIDs()}}
	s.lay.Attrs = make([]string, len(s.lay.IDs))
	for i, id := range s.lay.IDs {
		s.lay.Attrs[i] = e.Items[id].Attr
	}
	return s
}

// Rep returns the first execution interned with this shape: the one whose
// structure the others share, and the one a value record names.
func (s *Shape) Rep() *Execution { return s.rep }

// Layout returns the shape's items in the order of its stored vectors. Its
// At is nil: slot i is the shape's item i.
func (s *Shape) Layout() *Layout { return &s.lay }

// Index returns the index in the shape's order of item id; false when the
// shape has no such item.
func (s *Shape) Index(id string) (int, bool) { return itemIndex(s.lay.IDs, id) }

// Ancestry returns the shape's item ancestry, derived on first use.
func (s *Shape) Ancestry() *Ancestry {
	s.ancOnce.Do(func() { s.anc = newAncestry(s.rep, s.lay.IDs) })
	return s.anc
}

// Layout places the items of an execution, or of a view of one, in the
// slots of a value vector: slot j holds item IDs[j], whose attribute is
// Attrs[j] and whose index in the shape of the execution the items come
// from is At[j] (-1 when it has none there). A shape's own layout has a nil
// At: there slot j is item j.
type Layout struct {
	IDs   []string
	Attrs []string
	At    []int32
}

// Vector is one execution's values laid out by a Layout, with the
// redacted bit of each: a stored execution's in its shape's order, a
// snapshot's in its view plan's.
type Vector struct {
	Vals     []Value
	redacted []uint64 // nil while no value is redacted
}

// IsRedacted reports whether value j is redacted.
func (v *Vector) IsRedacted(j int) bool {
	w := j / 64
	return w < len(v.redacted) && v.redacted[w]&(1<<(j%64)) != 0
}

// Redact marks value j redacted; its value is left as it is.
func (v *Vector) Redact(j int) {
	if v.redacted == nil {
		v.redacted = make([]uint64, (len(v.Vals)+63)/64)
	}
	v.redacted[j/64] |= 1 << (j % 64)
}

// Materialize reads v, laid out by l, back as the execution named id whose
// structure is structure's: its nodes and edges shared, and per slot j a
// fresh copy of structure's item l.IDs[j] carrying value j and its redacted
// bit. It is how a stored execution or a snapshot is compared with the
// execution it stands for.
//
//provlint:ignore unserved test support: exec, query and repo tests turn a value vector back into an execution (shape_test.go, provenance_test.go, helpers_test.go)
func (l *Layout) Materialize(structure *Execution, id string, v *Vector) *Execution {
	e := &Execution{ID: id, SpecID: structure.SpecID, Nodes: structure.Nodes, Edges: structure.Edges, Items: make(map[string]*DataItem, len(l.IDs))}
	for j, itemID := range l.IDs {
		it := *structure.Items[itemID]
		it.Value, it.Redacted = v.Vals[j], v.IsRedacted(j)
		e.Items[itemID] = &it
	}
	return e
}

// Stored is a stored execution: its id, its shape and its values, in the
// shape's order. It is read-only once made; its structure is the shape
// representative's.
type Stored struct {
	ID    string
	shape *Shape
	vec   Vector
}

// Shape returns the shape the execution was interned under.
func (st *Stored) Shape() *Shape { return st.shape }

// SpecID returns the id of the execution's specification.
func (st *Stored) SpecID() string { return st.shape.rep.SpecID }

// Vector returns the execution's values in its shape's order; they are
// shared and must not be written.
func (st *Stored) Vector() *Vector { return &st.vec }

// store returns e, an execution of this shape, as a stored one: its values
// gathered in the shape's order. e is only read.
func (s *Shape) store(e *Execution) *Stored {
	st := &Stored{ID: e.ID, shape: s, vec: Vector{Vals: make([]Value, len(s.lay.IDs))}}
	for i, id := range s.lay.IDs {
		it := e.Items[id]
		st.vec.Vals[i] = it.Value
		if it.Redacted {
			st.vec.Redact(i)
		}
	}
	return st
}

// WithValues returns the execution id of this shape that carries values,
// given in the shape's order, those at the redacted indexes marked
// redacted. The values are copied; nothing structural is taken from the
// caller, so there is nothing to validate beyond the vector itself.
func (s *Shape) WithValues(id string, values []Value, redacted []int) (*Stored, error) {
	if len(values) != len(s.lay.IDs) {
		return nil, fmt.Errorf("exec: %s carries %d values, the shape of %s has %d items", id, len(values), s.rep.ID, len(s.lay.IDs))
	}
	st := &Stored{ID: id, shape: s, vec: Vector{Vals: slices.Clone(values)}}
	for _, i := range redacted {
		if i < 0 || i >= len(values) {
			return nil, fmt.Errorf("exec: %s redacts item %d of %d", id, i, len(values))
		}
		st.vec.Redact(i)
	}
	return st, nil
}

// valueRecord is the stored form of an execution that is not the first of
// its shape in its store: the id of one that is, and the value vector. The
// execution's own id is the record's key.
type valueRecord struct {
	Like     string  `json:"like"`
	Values   []Value `json:"values"`
	Redacted []int   `json:"redacted,omitempty"`
}

// MarshalValues serializes st as a value record naming its shape's
// representative.
func (st *Stored) MarshalValues() ([]byte, error) {
	rec := valueRecord{Like: st.shape.rep.ID, Values: st.vec.Vals}
	for i := range st.vec.Vals {
		if st.vec.IsRedacted(i) {
			rec.Redacted = append(rec.Redacted, i)
		}
	}
	return json.Marshal(rec)
}

// Shapes interns the executions of one specification by shape. It is not
// safe for concurrent use: internal/repo keeps one per shard, under the
// shard's lock. Executions are only ever added, like the shard's.
type Shapes struct {
	seed   maphash.Seed
	byHash map[uint64][]*Shape
	n      int
	// values is UnmarshalValues' vector, reused: WithValues copies it.
	values []Value
}

// NewShapes returns an empty table.
func NewShapes() *Shapes {
	return &Shapes{seed: maphash.MakeSeed(), byHash: make(map[uint64][]*Shape)}
}

// Intern files e under its shape and returns it as a stored execution: its
// values over the shape's structure. The first execution of a shape becomes
// the shape's representative, and must not change afterwards; of any other
// only the values are kept, so nothing of the caller's graph stays
// reachable. A fingerprint over the shape's fields finds the candidates and
// SameShape accepts one, so two shapes that collide cost a comparison and
// never share.
func (t *Shapes) Intern(e *Execution) *Stored {
	fp := t.fingerprint(e)
	for _, s := range t.byHash[fp] {
		if SameShape(s.rep, e) {
			return s.store(e)
		}
	}
	s := newShape(e)
	t.byHash[fp] = append(t.byHash[fp], s)
	t.n++
	return s.store(e)
}

// NewStored returns e as a stored execution alone in a shape of its own:
// what an analysis of one execution that no table holds reads.
func NewStored(e *Execution) *Stored { return newShape(e).store(e) }

// UnmarshalValues parses a value record (MarshalValues) as the execution id
// and files it under the shape of the execution the record names, looked up
// in stored, without comparing anything: the record carries no structure. A
// record that names no stored execution, or whose vector does not fit the
// shape, is refused.
func (t *Shapes) UnmarshalValues(id string, data []byte, stored map[string]*Stored) (*Stored, error) {
	rec, err := decodeValueRecord(data, t.values)
	if err != nil {
		return nil, fmt.Errorf("exec: decode values of %s: %w", id, err)
	}
	t.values = rec.Values
	like := stored[rec.Like]
	if like == nil {
		return nil, fmt.Errorf("exec: values of %s name %q, which is not stored", id, rec.Like)
	}
	return like.shape.WithValues(id, rec.Values, rec.Redacted)
}

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

// Ancestry is the provenance order among the items of a shape: whether
// the producer of one reaches the producer of another. It is what taint
// analysis (internal/taint) needs of an execution's structure.
type Ancestry struct {
	// IDs are the shape's item ids, in ItemIDs order.
	IDs  []string
	prod []graph.NodeID // producer of IDs[i]; Invalid when unknown
	cl   *graph.Closure // nil when the execution graph has a cycle
}

func newAncestry(e *Execution, ids []string) *Ancestry {
	a := &Ancestry{IDs: ids}
	g := e.Graph()
	a.prod = make([]graph.NodeID, len(a.IDs))
	for i, id := range a.IDs {
		a.prod[i] = g.Lookup(e.Items[id].Producer)
	}
	a.cl, _ = graph.NewClosure(g) // a cyclic graph leaves cl nil
	return a
}

// Index returns the index in IDs of item id; false when the shape has no
// such item.
func (a *Ancestry) Index(id string) (int, bool) { return itemIndex(a.IDs, id) }

// itemIndex finds id in ids, which are in ItemIDs order.
func itemIndex(ids []string, id string) (int, bool) {
	return slices.BinarySearchFunc(ids, id, compareItemIDs)
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
