// Package query implements structural queries over workflow executions
// (Section 4 of the CIDR 2011 paper; in the spirit of BP-QL, Beeri et
// al., cited as [1]): selecting module executions by keyword, relating
// them by direct dataflow or by precedence ("Expand SNP Set was executed
// before Query OMIM"), and returning provenance for a selected variable.
//
// Queries are written in a small textual language:
//
//	MATCH a = "expand snp", b = "query omim"
//	WHERE a ~> b
//	RETURN provenance(b)
//
// Constraints: `x -> y` requires a direct dataflow edge between the
// matched executions; `x ~> y` requires a path (x executed before y and
// contributed to it). RETURN clauses: provenance(x), downstream(x),
// nodes, bindings.
//
// Privacy-controlled semantics (Section 4): the caller collapses the
// execution to the user's access view (coarser composite executions
// replace hidden detail — the "zoom-out") and masks data values per the
// data-privacy policy; the evaluator runs on that view and refuses to
// match modules protected by module privacy.
package query

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"provpriv/internal/exec"
	"provpriv/internal/graph"
	"provpriv/internal/jsonw"
	"provpriv/internal/privacy"
	"provpriv/internal/search"
	"provpriv/internal/workflow"
)

// ReturnKind selects what a query returns per match.
type ReturnKind int

const (
	// ReturnBindings returns just the variable bindings.
	ReturnBindings ReturnKind = iota
	// ReturnNodes returns the matched nodes of all bindings.
	ReturnNodes
	// ReturnProvenance returns the provenance sub-execution of the
	// item(s) produced by the designated variable's node.
	ReturnProvenance
	// ReturnDownstream returns the data items downstream of the
	// designated variable's node outputs.
	ReturnDownstream
)

// Constraint relates two variables.
type Constraint struct {
	X, Y   string
	Direct bool // true: edge; false: path (precedence)
	Negate bool // true: the relation must NOT hold
}

// Query is a parsed structural query.
type Query struct {
	Vars        map[string][]string // var -> phrase tokens
	VarOrder    []string
	Constraints []Constraint
	Return      ReturnKind
	ReturnVar   string
}

// Binding assigns each variable an execution node id.
type Binding map[string]string

// Answer is the result of evaluating a query against one execution.
type Answer struct {
	ExecutionID string
	Bindings    []Binding
	// Provenance, per binding, when Return == ReturnProvenance.
	Provenance []*exec.Execution
	// Downstream item ids, per binding, when Return == ReturnDownstream.
	Downstream [][]string
	// Nodes is the union of bound nodes when Return == ReturnNodes.
	Nodes []string
	// ZoomedOut reports that privacy collapsed the execution before
	// evaluation.
	ZoomedOut bool
}

// AppendJSON appends the /query wire form of the answer, zoomSteps being
// the zoom-out's step count (0 off the zoom-out path): byte for byte what
// encoding/json writes for
//
//	struct {
//		ExecutionID string     `json:"execution"`
//		Bindings    []Binding  `json:"bindings"`
//		Nodes       []string   `json:"nodes,omitempty"`
//		Downstream  [][]string `json:"downstream,omitempty"`
//		ZoomedOut   bool       `json:"zoomed_out,omitempty"`
//		ZoomSteps   int        `json:"zoom_steps,omitempty"`
//	}
//
// with a binding's keys in sorted order. Provenance is not on the wire.
func (a *Answer) AppendJSON(b []byte, zoomSteps int) []byte {
	b = append(b, `{"execution":`...)
	b = jsonw.AppendString(b, a.ExecutionID)
	b = append(b, `,"bindings":`...)
	if a.Bindings == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, bd := range a.Bindings {
			if i > 0 {
				b = append(b, ',')
			}
			b = bd.appendJSON(b)
		}
		b = append(b, ']')
	}
	if len(a.Nodes) > 0 {
		b = append(b, `,"nodes":`...)
		b = jsonw.AppendStrings(b, a.Nodes)
	}
	if len(a.Downstream) > 0 {
		b = append(b, `,"downstream":[`...)
		for i, ids := range a.Downstream {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonw.AppendStrings(b, ids)
		}
		b = append(b, ']')
	}
	if a.ZoomedOut {
		b = append(b, `,"zoomed_out":true`...)
	}
	if zoomSteps != 0 {
		b = append(b, `,"zoom_steps":`...)
		b = strconv.AppendInt(b, int64(zoomSteps), 10)
	}
	return append(b, '}')
}

// appendJSON appends the binding as a JSON object, keys sorted as
// encoding/json sorts a map's; a nil binding is null.
func (bd Binding) appendJSON(b []byte) []byte {
	if bd == nil {
		return append(b, "null"...)
	}
	var buf [8]string // a query binds a handful of variables
	keys := buf[:0]
	for k := range bd {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonw.AppendString(b, k)
		b = append(b, ':')
		b = jsonw.AppendString(b, bd[k])
	}
	return append(b, '}')
}

// Evaluator evaluates structural queries against executions of a spec.
// It is immutable once built and safe for concurrent use; internal/repo
// keeps one per shard.
type Evaluator struct {
	Spec *workflow.Spec
	// terms maps the id of every module of the spec to the module's
	// normalized term set. It depends on the spec alone — which modules a
	// user may bind is decided per evaluation, against the policy passed
	// in — so it is built once and there is nothing to invalidate.
	terms map[string]map[string]bool
}

// NewEvaluator returns an evaluator for the spec, deriving its module
// table. Should an unvalidated spec repeat a module id, the workflow whose
// id sorts first provides the module, as in Spec.FindModule.
func NewEvaluator(s *workflow.Spec) *Evaluator {
	ev := &Evaluator{Spec: s, terms: make(map[string]map[string]bool)}
	for _, wid := range s.WorkflowIDs() {
		for _, m := range s.Workflows[wid].Modules {
			if _, dup := ev.terms[m.ID]; !dup {
				ev.terms[m.ID] = search.ModuleTerms(m)
			}
		}
	}
	return ev
}

// selects reports whether a phrase selects the spec's module with the
// given id: a phrase of the form ["id:M6"] by module id, ignoring case,
// any other phrase when the module carries every one of its terms. An id
// the spec does not have is never selected.
func (ev *Evaluator) selects(moduleID string, phrase []string) bool {
	terms, ok := ev.terms[moduleID]
	if !ok {
		return false
	}
	if len(phrase) == 1 && len(phrase[0]) > len("id:") && strings.HasPrefix(phrase[0], "id:") {
		return strings.EqualFold(moduleID, phrase[0][len("id:"):])
	}
	for _, p := range phrase {
		if !terms[p] {
			return false
		}
	}
	return true
}

// matchingNodes returns, in id order, the module-execution nodes of pe
// (PreparedExec.modules) whose module the phrase selects and the level may
// see.
func (ev *Evaluator) matchingNodes(pe *PreparedExec, phrase []string, pol *privacy.Policy, level privacy.Level) []string {
	var out []string
	for _, n := range pe.modules {
		if pol != nil && !pol.CanSeeModule(level, n.Module) {
			continue
		}
		if ev.selects(n.Module, phrase) {
			out = append(out, n.ID)
		}
	}
	return out
}

// PreparedExec bundles an execution with its derived graph, transitive
// closure and id-addressed indexes, all built once. The execution MUST
// be immutable for the lifetime of the PreparedExec: internal/repo
// shares one between arbitrarily many concurrent evaluations, which is
// sound only because neither the evaluator nor any other read path
// mutates the execution, the graph, the closure or the index maps.
//
// Everything but Exec's item values is a function of the execution's
// shape (exec.SameShape) and the view it was collapsed to, so
// internal/repo prepares one value-free PreparedExec per (shape, access
// view) — the view's plan (PreparePlan) — and every cached snapshot is a
// Fill of it: a value vector over the plan's item slots. The snapshots of
// one shape and view share the whole plan and own only their values.
//
// The indexes exist because exec.Execution deliberately lost its lazily
// memoized node index in PR 4 (memoizing inside a shared immutable
// value races); Execution.Node is a linear scan by contract. Building
// the maps here — exactly once — restores O(1) id resolution on every
// warm read without reintroducing hidden mutable state into the shared
// execution.
type PreparedExec struct {
	Exec *exec.Execution
	g    *graph.Graph
	cl   *graph.Closure

	// nodeByID resolves node ids without Execution.Node's linear scan.
	nodeByID map[string]*exec.Node
	// modules lists, in id order, the nodes that represent a module
	// execution — atomic and begin nodes, and in views the collapsed
	// composite nodes (atomic) — the nodes a query variable binds.
	modules []*exec.Node
	// producedBy maps a node id to the sorted ids of the items it
	// produced (the per-binding scan of ReturnProvenance/ReturnDownstream
	// made O(1)).
	producedBy map[string][]string
	// flowsFrom maps a node id to the sorted distinct item ids on its
	// outgoing edges (the relay-node fallback of the same return paths).
	flowsFrom map[string][]string
	// slots lays the execution's items out as the slots of a value vector,
	// in byte order of their ids — the order an answer lists them in. A
	// plan (PreparePlan) also records the shape it was collapsed from, and
	// in slots.At each item's index in that shape, which Fill gathers from.
	slots exec.Layout
	shape *exec.Shape
	// prov is the provenance index, built lazily and shared with every
	// snapshot of this value (provenance.go).
	prov *provIndex
}

// PrepareExec derives the graph, closure and id indexes of an
// (immutable) execution so repeated evaluations skip every rebuild. It
// fails when the execution's graph has a cycle.
func PrepareExec(e *exec.Execution) (*PreparedExec, error) {
	return PrepareGraph(e, e.Graph())
}

// PrepareGraph is PrepareExec for a caller that already holds e's graph
// (exec.CollapseIn returns the view's; masking changes item values only,
// so it still describes the masked view): g is adopted, not rebuilt, and
// shared read-only with every later evaluation. The closure's
// topological sort is also what establishes acyclicity for a view that
// CollapseIn validated up to it — a cyclic g fails here, before anything
// is prepared or served.
func PrepareGraph(e *exec.Execution, g *graph.Graph) (*PreparedExec, error) {
	cl, err := graph.NewClosure(g)
	if err != nil {
		return nil, fmt.Errorf("query: execution graph: %w", err)
	}
	pe := &PreparedExec{
		Exec:       e,
		g:          g,
		cl:         cl,
		nodeByID:   make(map[string]*exec.Node, len(e.Nodes)),
		producedBy: make(map[string][]string),
		flowsFrom:  make(map[string][]string),
		slots:      exec.Layout{IDs: make([]string, 0, len(e.Items))},
		prov:       &provIndex{keep: make([]provSlot, len(e.Items))},
	}
	for _, n := range e.Nodes {
		pe.nodeByID[n.ID] = n
		if n.Kind == exec.AtomicNode || n.Kind == exec.BeginNode {
			pe.modules = append(pe.modules, n)
		}
	}
	slices.SortFunc(pe.modules, func(a, b *exec.Node) int { return strings.Compare(a.ID, b.ID) })
	for id, it := range e.Items {
		pe.producedBy[it.Producer] = append(pe.producedBy[it.Producer], id)
		pe.slots.IDs = append(pe.slots.IDs, id)
	}
	for _, ids := range pe.producedBy {
		sort.Strings(ids)
	}
	slices.Sort(pe.slots.IDs)
	pe.slots.Attrs = make([]string, len(pe.slots.IDs))
	for j, id := range pe.slots.IDs {
		pe.slots.Attrs[j] = e.Items[id].Attr
	}
	// Collect every outgoing edge's items per source node, then sort and
	// de-duplicate each list once.
	for _, ed := range e.Edges {
		pe.flowsFrom[ed.From] = append(pe.flowsFrom[ed.From], ed.Items...)
	}
	for from, ids := range pe.flowsFrom {
		sort.Strings(ids)
		pe.flowsFrom[from] = slices.Compact(ids)
	}
	return pe, nil
}

// PreparePlan is PrepareGraph for a view collapsed from an execution of
// shape, whose values the caller blanks: a plan, which Fill gives the values
// of any stored execution of the shape. It records, once, each item slot's
// index in the shape, so a fill is a gather.
func PreparePlan(view *exec.Execution, g *graph.Graph, shape *exec.Shape) (*PreparedExec, error) {
	pe, err := PrepareGraph(view, g)
	if err != nil {
		return nil, err
	}
	pe.shape = shape
	pe.slots.At = make([]int32, len(pe.slots.IDs))
	for j, id := range pe.slots.IDs {
		i, ok := shape.Index(id)
		if !ok {
			return nil, fmt.Errorf("query: view item %q is not an item of %s's shape", id, shape.Rep().ID)
		}
		pe.slots.At[j] = int32(i)
	}
	return pe, nil
}

// Snapshot is one execution's values over a prepared execution's item
// slots, named ID: what a query or a provenance is answered from. A
// snapshot of a plan shares everything with the plan's other snapshots but
// its values, and is read-only once served.
type Snapshot struct {
	Plan *PreparedExec
	ID   string
	exec.Vector
}

// Fill returns the snapshot, named id, of st — a stored execution of the
// plan's shape — with st's values gathered into the plan's slots, which the
// caller may mask in place before serving it: what PrepareGraph over
// CollapseIn of st's execution under the plan's prefix would carry, with
// neither run again.
func (pe *PreparedExec) Fill(st *exec.Stored, id string) (Snapshot, error) {
	if pe.shape == nil || st.Shape() != pe.shape {
		return Snapshot{}, fmt.Errorf("query: %s is not of the shape the plan %s was collapsed from", st.ID, pe.Exec.ID)
	}
	src := st.Vector()
	s := Snapshot{Plan: pe, ID: id, Vector: exec.Vector{Vals: make([]exec.Value, len(pe.slots.At))}}
	for j, i := range pe.slots.At {
		s.Vals[j] = src.Vals[i]
		if src.IsRedacted(int(i)) {
			s.Redact(j)
		}
	}
	return s, nil
}

// Snapshot returns pe's own execution as a snapshot, its values read from
// its items: how a prepared execution that carries its values is evaluated
// (Evaluate, EvaluateOn).
func (pe *PreparedExec) Snapshot() Snapshot {
	s := Snapshot{Plan: pe, ID: pe.Exec.ID, Vector: exec.Vector{Vals: make([]exec.Value, len(pe.slots.IDs))}}
	for j, id := range pe.slots.IDs {
		it := pe.Exec.Items[id]
		s.Vals[j] = it.Value
		if it.Redacted {
			s.Redact(j)
		}
	}
	return s
}

// Layout returns pe's item slots: in a plan, where Fill gathered each
// snapshot value from.
func (pe *PreparedExec) Layout() *exec.Layout { return &pe.slots }

// Slot returns the slot of item id; false when the execution has no such
// item.
func (pe *PreparedExec) Slot(id string) (int, bool) { return slices.BinarySearch(pe.slots.IDs, id) }

// Graph exposes the pre-derived graph for read-only reuse.
func (pe *PreparedExec) Graph() *graph.Graph { return pe.g }

// returnItems resolves the items a return clause materializes for a
// bound node: the items it produced, or — for relay (begin/collapsed)
// nodes that produce nothing — the items on its outgoing edges.
func (pe *PreparedExec) returnItems(nodeID string) []string {
	if items := pe.producedBy[nodeID]; len(items) > 0 {
		return items
	}
	return pe.flowsFrom[nodeID]
}

// Evaluate runs the query against an execution with no privacy
// constraints.
//
//provlint:ignore unserved reference: query tests evaluate one execution with no policy through it (query_test.go, extensions_test.go, match_tables_test.go)
func (ev *Evaluator) Evaluate(q *Query, e *exec.Execution) (*Answer, error) {
	pe, err := PrepareExec(e)
	if err != nil {
		return nil, err
	}
	return ev.EvaluateSnapshot(q, pe.Snapshot(), nil, 0, false)
}

// EvaluateOn is EvaluateSnapshot on pe's own execution, which carries its
// values: a view the caller has already collapsed to the user's access view
// and masked for the user's level.
func (ev *Evaluator) EvaluateOn(q *Query, pe *PreparedExec, pol *privacy.Policy, level privacy.Level, zoomedOut bool) (*Answer, error) {
	return ev.EvaluateSnapshot(q, pe.Snapshot(), pol, level, zoomedOut)
}

// EvaluateSnapshot runs the query against a snapshot of an execution view
// that the caller has already collapsed to the user's access view and
// masked for the user's level (internal/repo serves it from its per-shard
// caches, so the collapse and taint analysis are paid once per execution,
// not per query): the fully amortized warm path — no graph or closure
// rebuild, no masking, only the match itself. The snapshot is treated as
// strictly read-only. zoomedOut flags whether the view is coarser than the
// full expansion.
func (ev *Evaluator) EvaluateSnapshot(q *Query, s Snapshot, pol *privacy.Policy, level privacy.Level, zoomedOut bool) (*Answer, error) {
	ans, err := ev.MatchOn(q, s, pol, level, zoomedOut)
	if err != nil {
		return nil, err
	}
	if err := ev.MaterializeReturn(q, ans, s); err != nil {
		return nil, err
	}
	return ans, nil
}

// MatchOn runs only the binding phase of a query — candidate selection
// and constraint backtracking — leaving the return clause (provenance /
// downstream sub-executions) unmaterialized. It reads the structure of
// s.Plan and s.ID only, never a value, so the bindings are a function of
// the plan: internal/repo matches once per view plan on a snapshot that
// carries no values (Snapshot{Plan: plan}) and hands every execution of
// the plan the bindings found. Callers that need to know *whether and
// where* a query matches, but will discard most answers (QueryAllPageCtx
// windows by execution), use this to avoid building sub-executions that
// are thrown away; MaterializeReturn completes the surviving answers.
func (ev *Evaluator) MatchOn(q *Query, s Snapshot, pol *privacy.Policy, level privacy.Level, zoomed bool) (*Answer, error) {
	if len(q.Vars) == 0 {
		return nil, fmt.Errorf("query: no variables")
	}
	pe := s.Plan
	g, cl := pe.g, pe.cl
	// Candidates per variable.
	cands := make(map[string][]string, len(q.Vars))
	for v, phrase := range q.Vars {
		ns := ev.matchingNodes(pe, phrase, pol, level)
		if len(ns) == 0 {
			return &Answer{ExecutionID: s.ID, ZoomedOut: zoomed}, nil
		}
		cands[v] = ns
	}
	check := func(b Binding, c Constraint) bool {
		x, okx := b[c.X]
		y, oky := b[c.Y]
		if !okx || !oky {
			return true // defer until both bound
		}
		u, v := g.Lookup(x), g.Lookup(y)
		var holds bool
		if c.Direct {
			holds = g.HasEdge(u, v)
		} else {
			holds = u != v && cl.Reach(u, v)
		}
		if c.Negate {
			return !holds
		}
		return holds
	}

	ans := &Answer{ExecutionID: s.ID, ZoomedOut: zoomed}
	// Backtracking over variables in declaration order.
	var assign func(i int, b Binding)
	assign = func(i int, b Binding) {
		if i == len(q.VarOrder) {
			cp := make(Binding, len(b))
			for k, v := range b {
				cp[k] = v
			}
			ans.Bindings = append(ans.Bindings, cp)
			return
		}
		v := q.VarOrder[i]
		for _, node := range cands[v] {
			b[v] = node
			ok := true
			for _, c := range q.Constraints {
				if !check(b, c) {
					ok = false
					break
				}
			}
			if ok {
				assign(i+1, b)
			}
			delete(b, v)
		}
	}
	assign(0, make(Binding))
	return ans, nil
}

// MaterializeReturn completes an answer produced by MatchOn: it fills
// in the return clause (nodes, provenance sub-executions, downstream
// item sets) against the same prepared execution. Item resolution per
// binding goes through the PreparedExec indexes, and a provenance through
// the plan's provenance index with the snapshot's values, so no step here
// is linear in execution size beyond the sub-graphs actually returned.
// Provenance is the only return that reads values: the others read the
// plan's structure alone and may be given a snapshot that carries none.
func (ev *Evaluator) MaterializeReturn(q *Query, ans *Answer, s Snapshot) error {
	pe := s.Plan
	e, g := pe.Exec, pe.g
	switch q.Return {
	case ReturnNodes:
		set := make(map[string]bool)
		for _, b := range ans.Bindings {
			for _, n := range b {
				set[n] = true
			}
		}
		for n := range set {
			ans.Nodes = append(ans.Nodes, n)
		}
		sort.Strings(ans.Nodes)
	case ReturnProvenance:
		for _, b := range ans.Bindings {
			items := pe.returnItems(b[q.ReturnVar])
			if len(items) == 0 {
				continue
			}
			p, err := s.Provenance(items[0])
			if err != nil {
				return err
			}
			ans.Provenance = append(ans.Provenance, p.Execution())
		}
	case ReturnDownstream:
		for _, b := range ans.Bindings {
			set := make(map[string]bool)
			for _, it := range pe.returnItems(b[q.ReturnVar]) {
				down, err := exec.DownstreamIn(e, g, it)
				if err != nil {
					return err
				}
				for _, d := range down {
					set[d] = true
				}
			}
			var ds []string
			for d := range set {
				ds = append(ds, d)
			}
			sort.Strings(ds)
			ans.Downstream = append(ans.Downstream, ds)
		}
	}
	return nil
}

// Render renders an answer tersely for CLI output.
func (a *Answer) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "execution %s: %d binding(s)", a.ExecutionID, len(a.Bindings))
	if a.ZoomedOut {
		b.WriteString(" (zoomed out)")
	}
	b.WriteByte('\n')
	for i, bind := range a.Bindings {
		vars := make([]string, 0, len(bind))
		for v := range bind {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		parts := make([]string, len(vars))
		for j, v := range vars {
			parts[j] = v + "=" + bind[v]
		}
		fmt.Fprintf(&b, "  [%d] %s\n", i, strings.Join(parts, " "))
	}
	return b.String()
}
