package structpriv

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"provpriv/internal/graph"
)

// HideByCluster collapses the given members into a single composite node
// whose internal structure — including the hidden pairs' connectivity —
// is no longer externally visible. The quotient graph must remain
// acyclic (the member set must be "convex enough"); if collapsing would
// create a cycle, the member set is first grown to include the
// offending intermediate nodes, mirroring how workflow composite modules
// must contain whole sub-dags.
func HideByCluster(g *graph.Graph, pairs []Pair, members []string) (*Result, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("structpriv: cluster needs at least 2 members")
	}
	for _, m := range members {
		if g.Lookup(m) == graph.Invalid {
			return nil, fmt.Errorf("structpriv: cluster member %q not in graph", m)
		}
	}
	for _, p := range pairs {
		inC := make(map[string]bool, len(members))
		for _, m := range members {
			inC[m] = true
		}
		if !inC[p.From] || !inC[p.To] {
			return nil, fmt.Errorf("structpriv: pair %s not contained in cluster", p)
		}
	}
	members = convexify(g, members)
	quotient, name := buildQuotient(g, members)
	res := &Result{
		Strategy:    Cluster,
		Graph:       quotient,
		ClusterName: name,
		Cluster:     members,
	}
	inC := make(map[string]bool, len(members))
	for _, m := range members {
		inC[m] = true
	}
	nodeMap := make(map[string]string, g.N())
	for i := 0; i < g.N(); i++ {
		n := g.Name(graph.NodeID(i))
		if inC[n] {
			nodeMap[n] = name
		} else {
			nodeMap[n] = n
		}
	}
	res.Metrics = computeMetrics(g, quotient, nodeMap, pairs, inC)
	return res, nil
}

// convexify grows the member set until every node on a path between two
// members is itself a member — the condition under which the quotient
// graph of a DAG stays acyclic.
func convexify(g *graph.Graph, members []string) []string {
	set := make(map[string]bool, len(members))
	for _, m := range members {
		set[m] = true
	}
	changed := true
	for changed {
		changed = false
		var ms []graph.NodeID
		for name := range set {
			ms = append(ms, g.Lookup(name))
		}
		for _, u := range ms {
			for _, v := range ms {
				if u == v {
					continue
				}
				for _, mid := range g.NodesOnPaths(u, v) {
					name := g.Name(mid)
					if !set[name] {
						set[name] = true
						changed = true
					}
				}
			}
		}
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// buildQuotient collapses members into a single node named
// "P(m1+m2+...)" and returns the quotient graph.
func buildQuotient(g *graph.Graph, members []string) (*graph.Graph, string) {
	inC := make(map[string]bool, len(members))
	for _, m := range members {
		inC[m] = true
	}
	name := "P(" + strings.Join(members, "+") + ")"
	q := graph.New()
	for i := 0; i < g.N(); i++ {
		n := g.Name(graph.NodeID(i))
		if !inC[n] {
			q.AddNode(n)
		}
	}
	p := q.AddNode(name)
	for _, e := range g.Edges() {
		un, vn := g.Name(e.U), g.Name(e.V)
		var qu, qv graph.NodeID
		if inC[un] {
			qu = p
		} else {
			qu = q.Lookup(un)
		}
		if inC[vn] {
			qv = p
		} else {
			qv = q.Lookup(vn)
		}
		if qu != qv {
			q.AddEdge(qu, qv)
		}
	}
	return q, name
}

// HideByClusterGroups hides multiple pairs with one cluster per
// connected group of pairs (pairs sharing an endpoint go to the same
// cluster), instead of one cluster swallowing everything. Groups are
// clustered greedily in deterministic order; each grouping result is
// applied to the previous quotient, so the final graph hides all pairs.
// Returns the final quotient plus the per-group clusters.
//
//provlint:ignore unserved ROADMAP item 14 decides whether structpriv is served or goes (cluster_test.go)
func HideByClusterGroups(g *graph.Graph, pairs []Pair) (*Result, [][]string, error) {
	if len(pairs) == 0 {
		return nil, nil, fmt.Errorf("structpriv: no pairs to hide")
	}
	// Union endpoints into groups.
	parent := make(map[string]string)
	var find func(string) string
	find = func(x string) string {
		if parent[x] == "" || parent[x] == x {
			parent[x] = x
			return x
		}
		root := find(parent[x])
		parent[x] = root
		return root
	}
	union := func(a, b string) { parent[find(a)] = find(b) }
	for _, p := range pairs {
		union(p.From, p.To)
	}
	groupsByRoot := make(map[string][]string)
	seen := make(map[string]bool)
	for _, p := range pairs {
		for _, m := range []string{p.From, p.To} {
			if !seen[m] {
				seen[m] = true
				root := find(m)
				groupsByRoot[root] = append(groupsByRoot[root], m)
			}
		}
	}
	var roots []string
	for r := range groupsByRoot {
		roots = append(roots, r)
	}
	sort.Strings(roots)

	work := g.Clone()
	var groups [][]string
	var last *Result
	for _, root := range roots {
		members := groupsByRoot[root]
		sort.Strings(members)
		// Members already absorbed into an earlier (convexified) cluster
		// are gone from the working graph; their pairs are hidden there.
		var present []string
		for _, m := range members {
			if work.Lookup(m) != graph.Invalid {
				present = append(present, m)
			}
		}
		if len(present) < 2 {
			continue
		}
		inG := make(map[string]bool, len(present))
		for _, m := range present {
			inG[m] = true
		}
		var groupPairs []Pair
		for _, p := range pairs {
			if inG[p.From] && inG[p.To] {
				groupPairs = append(groupPairs, p)
			}
		}
		res, err := HideByCluster(work, groupPairs, present)
		if err != nil {
			return nil, nil, err
		}
		groups = append(groups, res.Cluster)
		work = res.Graph
		last = res
	}
	if last == nil {
		return nil, nil, fmt.Errorf("structpriv: all groups degenerate")
	}
	// Final metrics vs the ORIGINAL graph: recompute with the combined
	// node map.
	nodeMap := make(map[string]string, g.N())
	for i := 0; i < g.N(); i++ {
		name := g.Name(graph.NodeID(i))
		nodeMap[name] = name
	}
	clusterSet := make(map[string]bool)
	for _, members := range groups {
		// Each group got its own quotient node, named by buildQuotient
		// from its (convexified) members.
		cname := "P(" + strings.Join(members, "+") + ")"
		for _, m := range members {
			nodeMap[m] = cname
			clusterSet[m] = true
		}
	}
	final := &Result{
		Strategy: Cluster,
		Graph:    work,
		Cluster:  slices.Sorted(slices.Values(slices.Concat(groups...))),
	}
	final.Metrics = computeMetrics(g, work, nodeMap, pairs, clusterSet)
	return final, groups, nil
}

// ExtraneousPairs returns the connectivity facts a user can infer from
// the clustered view that are NOT true in the original graph — the
// unsound inferences of [9]. Only pairs of visible (non-member) nodes
// are considered; inference means reachability in the quotient graph.
func ExtraneousPairs(orig *graph.Graph, res *Result) []Pair {
	if res.Strategy != Cluster {
		return nil
	}
	inC := make(map[string]bool, len(res.Cluster))
	for _, m := range res.Cluster {
		inC[m] = true
	}
	origCl, err := graph.NewClosure(orig)
	if err != nil {
		return nil
	}
	viewCl, err := graph.NewClosure(res.Graph)
	if err != nil {
		return nil
	}
	var out []Pair
	for i := 0; i < orig.N(); i++ {
		un := orig.Name(graph.NodeID(i))
		if inC[un] {
			continue
		}
		for j := 0; j < orig.N(); j++ {
			if i == j {
				continue
			}
			vn := orig.Name(graph.NodeID(j))
			if inC[vn] {
				continue
			}
			qu, qv := res.Graph.Lookup(un), res.Graph.Lookup(vn)
			if viewCl.Reach(qu, qv) && !origCl.Reach(graph.NodeID(i), graph.NodeID(j)) {
				out = append(out, Pair{From: un, To: vn})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// IsSound reports whether the clustered view allows no extraneous
// inferences (cut-based results are sound by construction).
//
//provlint:ignore unserved ROADMAP item 14 decides whether structpriv is served or goes (structpriv_test.go)
func IsSound(orig *graph.Graph, res *Result) bool {
	if res.Strategy != Cluster {
		return true
	}
	return len(ExtraneousPairs(orig, res)) == 0
}

// GrowToSound repairs an unsound clustering by absorbing, one at a time,
// the visible node involved in the most extraneous pairs, until the view
// is sound or maxGrow nodes have been added. Growing the cluster trades
// module disclosure for soundness; the returned Result reflects the
// final cluster. The hidden pairs remain hidden throughout (endpoints
// stay inside the cluster).
func GrowToSound(orig *graph.Graph, pairs []Pair, members []string, maxGrow int) (*Result, error) {
	cur := append([]string(nil), members...)
	for step := 0; ; step++ {
		res, err := HideByCluster(orig, pairs, cur)
		if err != nil {
			return nil, err
		}
		ext := ExtraneousPairs(orig, res)
		if len(ext) == 0 {
			return res, nil
		}
		if step >= maxGrow {
			return res, fmt.Errorf("structpriv: still unsound after growing %d nodes (%d extraneous pairs)", step, len(ext))
		}
		// Most frequently offending endpoint.
		count := make(map[string]int)
		for _, p := range ext {
			count[p.From]++
			count[p.To]++
		}
		best, bestN := "", -1
		for n, c := range count {
			if c > bestN || (c == bestN && n < best) {
				best, bestN = n, c
			}
		}
		cur = append(cur, best)
		sort.Strings(cur)
	}
}

// SplitToSound implements the alternative repair of [9]: partition the
// cluster members into topologically contiguous segments, each clustered
// separately, such that the combined view is sound. Splitting may
// re-expose the hidden pairs (if From and To land in different
// segments); the boolean reports whether privacy survived.
func SplitToSound(orig *graph.Graph, pairs []Pair, members []string) (views []*Result, private bool, err error) {
	// Topologically order the members.
	order, err := orig.TopoSort()
	if err != nil {
		return nil, false, err
	}
	inM := make(map[string]bool, len(members))
	for _, m := range members {
		inM[m] = true
	}
	var sorted []string
	for _, n := range order {
		if inM[orig.Name(n)] {
			sorted = append(sorted, orig.Name(n))
		}
	}
	// Greedy segmentation: extend the current segment while the induced
	// single-cluster view stays sound; otherwise start a new segment.
	var segments [][]string
	var cur []string
	soundWith := func(seg []string) bool {
		if len(seg) < 2 {
			return true
		}
		res, err := HideByCluster(orig, nil, seg)
		if err != nil {
			return false
		}
		return len(ExtraneousPairs(orig, res)) == 0
	}
	for _, m := range sorted {
		trial := append(append([]string(nil), cur...), m)
		if soundWith(trial) {
			cur = trial
		} else {
			if len(cur) > 0 {
				segments = append(segments, cur)
			}
			cur = []string{m}
		}
	}
	if len(cur) > 0 {
		segments = append(segments, cur)
	}
	segOf := make(map[string]int)
	for i, seg := range segments {
		for _, m := range seg {
			segOf[m] = i
		}
	}
	private = true
	for _, p := range pairs {
		if segOf[p.From] != segOf[p.To] {
			private = false
		}
	}
	for _, seg := range segments {
		if len(seg) < 2 {
			continue // singleton segments stay visible, no cluster formed
		}
		res, err := HideByCluster(orig, nil, seg)
		if err != nil {
			return nil, false, err
		}
		views = append(views, res)
	}
	return views, private, nil
}
