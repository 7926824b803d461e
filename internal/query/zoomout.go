package query

import (
	"fmt"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/workflow"
)

// ZoomOutResult is an answer evaluated with the gradual zoom-out strategy:
// the answer on the first leak-free view, that view's prefix, and how many
// zoom-outs it took — the cost the paper warns about ("this can be
// expensive as each zoom-out may involve a disk access").
type ZoomOutResult struct {
	Answer *Answer
	Prefix workflow.Prefix
	Steps  int
}

// ZoomOut walks the evaluation strategy Section 4 sketches as an
// alternative to evaluating directly on the access view: "One approach
// would be to first construct a full answer, oblivious to the privacy
// requirement. If the result reveals sensitive information, we may
// gradually 'zoom-out' the view by hiding details of composite modules
// and sensitive data, until privacy is achieved."
//
// Whether a view leaks is structural — which module executions and which
// workflows it exposes — so the walk reads structure only: nodes returns
// the nodes of the execution's view at a prefix. Starting from the finest
// prefix, a view that exposes a module execution below level's
// module-privacy grant, or a workflow outside access (pol's access view at
// level, h the spec's hierarchy), loses its deepest offending workflow and
// the walk repeats. ZoomOut returns the first leak-free prefix and the
// number of zoom-outs; evaluating the query on that view, masked for level,
// is the caller's.
func ZoomOut(h *workflow.Hierarchy, access workflow.Prefix, pol *privacy.Policy, level privacy.Level, nodes func(workflow.Prefix) ([]*exec.Node, error)) (workflow.Prefix, int, error) {
	prefix := workflow.FullPrefix(h)
	for steps := 0; ; steps++ {
		ns, err := nodes(prefix)
		if err != nil {
			return nil, 0, err
		}
		offender := findLeak(ns, access, pol, level, prefix, h)
		if offender == "" {
			return prefix, steps, nil
		}
		if steps == len(h.All()) {
			return nil, 0, fmt.Errorf("query: zoom-out did not converge")
		}
		delete(prefix, offender)
		// Removing a workflow orphans its descendants: drop them too so
		// the prefix stays valid.
		for _, wid := range h.All() {
			if prefix.Contains(wid) && wid != h.Root && !prefix.Contains(h.Parent(wid)) {
				delete(prefix, wid)
			}
		}
	}
}

// findLeak returns the deepest workflow whose detail a view with the given
// nodes exposes but the user may not see, or "" when the view is safe.
// Since the paper defines query answers as views of the flow, the whole
// evaluation view is considered published — not just the bound nodes — so
// a leak is: any node executing inside a workflow outside the access view,
// or any visible execution of a module below the user's module-privacy
// level.
func findLeak(nodes []*exec.Node, access workflow.Prefix, pol *privacy.Policy, level privacy.Level, prefix workflow.Prefix, h *workflow.Hierarchy) string {
	var worst string
	worstDepth := -1
	for _, n := range nodes {
		// Module privacy: an exposed execution of a protected module
		// forces the enclosing workflow shut.
		if n.Module != "" && !pol.CanSeeModule(level, n.Module) {
			if _, w := h.Module(n.Module); w != nil && prefix.Contains(w.ID) && w.ID != h.Root {
				if d := h.Depth(w.ID); d > worstDepth {
					worst, worstDepth = w.ID, d
				}
			}
		}
		// Access view: nodes inside workflows beyond the user's view.
		for _, f := range n.Frames {
			if !access.Contains(f.Sub) && prefix.Contains(f.Sub) {
				if d := h.Depth(f.Sub); d > worstDepth {
					worst, worstDepth = f.Sub, d
				}
			}
		}
	}
	return worst
}
