package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"provpriv/internal/exec"
	"provpriv/internal/graph"
	"provpriv/internal/jsonw"
)

// provIndex is a prepared execution's provenance index. The provenance of
// an item (exec.ProvenanceIn: the sub-execution induced by every path from
// the start node to the item's producer) is fixed by the execution's shape
// and view, so it is derived once per plan — as positions into the plan's
// nodes, edges and item slots, never as a copy of the subgraph — and shared
// by every snapshot of the plan, which differ only in their values. The
// JSON of each node, edge and item up to its value is likewise encoded
// once, so an answer is written by joining runs and escaping the
// snapshot's values into their slots.
//
// Everything here is built lazily, on the first request that needs it, and
// is safe for concurrent first readers.
type provIndex struct {
	keep []provSlot // per item slot, derived on its first request

	runsOnce sync.Once
	// arena holds the pre-encoded runs: run k is arena[off[k]:off[k+1]].
	// Runs are every node (Exec.Nodes order), then every edge (Exec.Edges
	// order), then per item slot the head `"id":{"id":…,"attr":…,"value":`
	// and the tail `,"producer":…`.
	arena []byte
	off   []int32
}

// provKeep is what the provenance of one item keeps, as positions: nodes
// into Exec.Nodes, edges into Exec.Edges, items into the slots —
// ascending, which is the order exec.ProvenanceIn emits nodes and edges and
// encoding/json emits the item map.
type provKeep struct {
	nodes, edges, items []int32
	err                 error // why there is no provenance, if there is none
}

type provSlot struct {
	once sync.Once
	keep *provKeep
}

// Provenance is the provenance of one item of a snapshot, read through its
// plan's provenance index: Execution materializes it and AppendJSON writes
// the /provenance answer, each equal to what exec.ProvenanceIn of the
// snapshot's execution gives.
type Provenance struct {
	s    Snapshot
	item string
	keep *provKeep
}

// Provenance returns the provenance of itemID in s. The first request for
// an item in a plan derives what its provenance keeps; every later one, in
// any snapshot of the plan, reads it.
func (s Snapshot) Provenance(itemID string) (Provenance, error) {
	pe := s.Plan
	i, ok := pe.Slot(itemID)
	if !ok {
		return Provenance{}, fmt.Errorf("query: unknown data item %q", itemID)
	}
	slot := &pe.prov.keep[i]
	slot.once.Do(func() { slot.keep = derive(pe, i) })
	if slot.keep.err != nil {
		return Provenance{}, slot.keep.err
	}
	return Provenance{s: s, item: itemID, keep: slot.keep}, nil
}

// derive computes what exec.ProvenanceIn keeps for the item in slot i: the
// nodes reaching its producer, the edges between two of them, the items on
// those edges, and the item itself.
func derive(pe *PreparedExec, i int) *provKeep {
	e, g, ids := pe.Exec, pe.g, pe.slots.IDs
	it := e.Items[ids[i]]
	prod := g.Lookup(it.Producer)
	if prod == graph.Invalid {
		return &provKeep{err: fmt.Errorf("query: item %s has unknown producer %q", it.ID, it.Producer)}
	}
	reaches := make([]bool, g.N())
	for _, n := range g.ReachingTo(prod) {
		reaches[n] = true
	}
	kept := func(id string) bool {
		n := g.Lookup(id)
		return n != graph.Invalid && reaches[n]
	}
	k := &provKeep{}
	for j, n := range e.Nodes {
		if kept(n.ID) {
			k.nodes = append(k.nodes, int32(j))
		}
	}
	items := make([]bool, len(ids))
	items[i] = true
	for j, ed := range e.Edges {
		if kept(ed.From) && kept(ed.To) {
			k.edges = append(k.edges, int32(j))
			for _, id := range ed.Items {
				if p, ok := slices.BinarySearch(ids, id); ok {
					items[p] = true
				}
			}
		}
	}
	for p, in := range items {
		if in {
			k.items = append(k.items, int32(p))
		}
	}
	return k
}

// Execution materializes the provenance as the induced sub-execution
// exec.ProvenanceIn returns: fresh copies of the kept nodes, edges and
// items, with the snapshot's values, which the caller owns. The zero
// Provenance materializes as nil.
func (p Provenance) Execution() *exec.Execution {
	if p.s.Plan == nil {
		return nil
	}
	e, ids := p.s.Plan.Exec, p.s.Plan.slots.IDs
	sub := &exec.Execution{
		ID:     p.s.ID + "/prov(" + p.item + ")",
		SpecID: e.SpecID,
		Items:  make(map[string]*exec.DataItem, len(p.keep.items)),
	}
	for _, j := range p.keep.nodes {
		cp := *e.Nodes[j]
		sub.Nodes = append(sub.Nodes, &cp)
	}
	for _, j := range p.keep.edges {
		ed := e.Edges[j]
		sub.Edges = append(sub.Edges, exec.Edge{From: ed.From, To: ed.To, Items: append([]string(nil), ed.Items...)})
	}
	for _, j := range p.keep.items {
		id := ids[j]
		cp := *e.Items[id]
		cp.Value, cp.Redacted = p.s.Vals[j], p.s.IsRedacted(int(j))
		sub.Items[id] = &cp
	}
	return sub
}

// AppendJSON appends the /provenance answer for the request (specID,
// execID, the item) to dst: byte for byte what
//
//	json.NewEncoder(w).Encode(map[string]any{
//		"spec": specID, "exec": execID, "item": item,
//		"provenance": p.Execution(),
//	})
//
// writes, trailing newline included, with neither the sub-execution nor
// reflection. FuzzProvenanceEncode holds the two equal.
func (p Provenance) AppendJSON(dst []byte, specID, execID string) []byte {
	e, ix := p.s.Plan.Exec, p.s.Plan.runs()
	b := append(dst, `{"exec":`...)
	b = jsonw.AppendString(b, execID)
	b = append(b, `,"item":`...)
	b = jsonw.AppendString(b, p.item)
	b = append(b, `,"provenance":{"id":"`...)
	// Both joints are ASCII, so escaping the parts is escaping the whole.
	b = jsonw.AppendEscaped(b, p.s.ID)
	b = append(b, `/prov(`...)
	b = jsonw.AppendEscaped(b, p.item)
	b = append(b, `)","spec":`...)
	b = jsonw.AppendString(b, e.SpecID)
	b = append(b, `,"nodes":`...)
	b = ix.appendRuns(b, p.keep.nodes, 0)
	b = append(b, `,"edges":`...)
	b = ix.appendRuns(b, p.keep.edges, len(e.Nodes))
	b = append(b, `,"items":{`...)
	base := int32(len(e.Nodes) + len(e.Edges))
	for n, j := range p.keep.items {
		if n > 0 {
			b = append(b, ',')
		}
		b = append(b, ix.run(base+2*j)...)
		b = jsonw.AppendString(b, string(p.s.Vals[j]))
		b = append(b, ix.run(base+2*j+1)...)
		if p.s.IsRedacted(int(j)) {
			b = append(b, `,"redacted":true`...)
		}
		b = append(b, '}')
	}
	b = append(b, `}},"spec":`...)
	b = jsonw.AppendString(b, specID)
	return append(b, "}\n"...)
}

// runs returns pe's provenance index with its pre-encoded runs built. The
// runs hold no value: they are encoded from the structure every snapshot of
// the plan shares.
func (pe *PreparedExec) runs() *provIndex {
	ix := pe.prov
	ix.runsOnce.Do(func() {
		e := pe.Exec
		var b []byte
		off := make([]int32, 1, 1+len(e.Nodes)+len(e.Edges)+2*len(pe.slots.IDs))
		mark := func() { off = append(off, int32(len(b))) }
		for _, n := range e.Nodes {
			b = appendMarshal(b, n)
			mark()
		}
		for _, ed := range e.Edges {
			if len(ed.Items) == 0 {
				ed.Items = nil // the induced copy of an empty list encodes as null
			}
			b = appendMarshal(b, ed)
			mark()
		}
		for _, id := range pe.slots.IDs {
			it := e.Items[id]
			b = jsonw.AppendString(b, id)
			b = append(b, `:{"id":`...)
			b = jsonw.AppendString(b, it.ID)
			b = append(b, `,"attr":`...)
			b = jsonw.AppendString(b, it.Attr)
			b = append(b, `,"value":`...)
			mark()
			b = append(b, `,"producer":`...)
			b = jsonw.AppendString(b, it.Producer)
			mark()
		}
		ix.arena, ix.off = bytes.Clone(b), off // the arena is held as long as the plan: no slack
	})
	return ix
}

func (ix *provIndex) run(k int32) []byte { return ix.arena[ix.off[k]:ix.off[k+1]] }

// appendRuns appends the JSON array of the runs at base+j for each j in
// js — null when js is empty, as encoding/json writes a nil slice.
func (ix *provIndex) appendRuns(b []byte, js []int32, base int) []byte {
	if len(js) == 0 {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for n, j := range js {
		if n > 0 {
			b = append(b, ',')
		}
		b = append(b, ix.run(int32(base)+j)...)
	}
	return append(b, ']')
}

// appendMarshal appends encoding/json's encoding of v, which the structural
// types of an execution always have.
func appendMarshal(b []byte, v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("query: encode %T: %v", v, err))
	}
	return append(b, data...)
}
