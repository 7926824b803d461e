package query

import (
	"fmt"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/taint"
	"provpriv/internal/workflow"
)

// ZoomOut implements the evaluation strategy Section 4 sketches as an
// alternative to evaluating directly on the access view: "One approach
// would be to first construct a full answer, oblivious to the privacy
// requirement. If the result reveals sensitive information, we may
// gradually 'zoom-out' the view by hiding details of composite modules
// and sensitive data, until privacy is achieved."
//
// Starting from the finest prefix, the answer is computed and checked
// for leaks (module executions below the user's module-privacy level,
// workflows outside the access view); on a leak the deepest offending
// workflow is removed from the prefix and evaluation repeats. The
// returned Answer is the first leak-free one; Steps reports how many
// zoom-outs were needed — the cost the paper warns about ("this can be
// expensive as each zoom-out may involve a disk access").
type ZoomOutResult struct {
	Answer *Answer
	Prefix workflow.Prefix
	Steps  int
}

// ZoomOut evaluates q against e with the gradual zoom-out strategy, as level
// sees it under pol. Everything derived from the spec and the policy is the
// caller's, so a repository passes what it already holds: h is the spec's
// hierarchy, access is pol's access view at level, engine masks for pol (and
// whatever generalization ladders it was built with), and taints is engine's
// analysis of the full execution e. One analysis serves every zoom step:
// item ids are stable under Collapse, so the set applies to each
// successively coarser view.
func (ev *Evaluator) ZoomOut(q *Query, e *exec.Execution, h *workflow.Hierarchy, access workflow.Prefix, pol *privacy.Policy, engine *taint.Engine, taints *taint.Set, level privacy.Level) (*ZoomOutResult, error) {
	prefix := workflow.FullPrefix(h)
	steps := 0
	for {
		masked, g, err := exec.CollapseIn(e, h, prefix)
		if err != nil {
			return nil, err
		}
		engine.ApplyInPlace(masked, level, taints) // the view is this step's own
		pe, err := PrepareGraph(masked, g)
		if err != nil {
			return nil, err
		}
		ans, err := ev.evaluate(q, pe, pol, level, steps > 0)
		if err != nil {
			return nil, err
		}
		offender := ev.findLeak(ans, masked, access, pol, level, prefix, h)
		if offender == "" {
			return &ZoomOutResult{Answer: ans, Prefix: prefix, Steps: steps}, nil
		}
		delete(prefix, offender)
		// Removing a workflow orphans its descendants: drop them too so
		// the prefix stays valid.
		for _, wid := range h.All() {
			if prefix.Contains(wid) && wid != h.Root && !prefix.Contains(h.Parent(wid)) {
				delete(prefix, wid)
			}
		}
		steps++
		if steps > len(h.All()) {
			return nil, fmt.Errorf("query: zoom-out did not converge")
		}
	}
}

// findLeak returns the deepest workflow whose detail the current view
// exposes but the user may not see, or "" when the view is safe. Since
// the paper defines query answers as views of the flow, the whole
// evaluation view is considered published — not just the bound nodes —
// so a leak is: any node executing inside a workflow outside the access
// view, or any visible execution of a module below the user's
// module-privacy level.
func (ev *Evaluator) findLeak(ans *Answer, view *exec.Execution, access workflow.Prefix, pol *privacy.Policy, level privacy.Level, prefix workflow.Prefix, h *workflow.Hierarchy) string {
	_ = ans
	var worst string
	worstDepth := -1
	for _, n := range view.Nodes {
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
