// Package lockorder enforces the repository's documented mutex
// hierarchy and the defer-unlock discipline.
//
// The invariant (internal/repo package doc, hardened across PRs 2–7):
// policy-sensitive mutators take polMu before any other lock; the save
// path takes saveMu before reading shard state; the shard directory
// lock comes before usersMu and before any individual shard's lock.
// Violating the order is a lock-inversion deadlock that the race
// detector only catches on the schedule the tests happen to run.
//
// Two checks:
//
//  1. order: a Lock()/RLock() on a ranked mutex while a higher-ranked
//     mutex is held is reported. Ranks are keyed by (receiver type,
//     field) so the directory lock Repository.mu and a shard's
//     repoShard.mu — same field name — order correctly.
//  2. release: every Lock()/RLock() must be released in the same
//     function, preferably via defer. A lock whose first release
//     appears after an intervening return statement (an exit path that
//     leaves the mutex held), or that is never released in the
//     function at all, is reported. Deliberate lock handoffs use
//     //provlint:ignore lockorder <reason>.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"provpriv/internal/analysis/lintkit"
)

// rank orders the repository's named mutexes, outermost first. Keys
// are "<receiver type>.<field>".
var rank = map[string]int{
	"Repository.polMu":   10,
	"Repository.saveMu":  20,
	"Repository.mu":      30,
	"Repository.usersMu": 35,
	"repoShard.mu":       50,
}

const orderDoc = "documented order: polMu → saveMu → mu (directory) → usersMu → mu (shard)"

var Analyzer = &lintkit.Analyzer{
	Name: "lockorder",
	Doc: "enforce the polMu → saveMu → directory mu → usersMu → shard mu hierarchy " +
		"and that every Lock has a matching (ideally deferred) Unlock in the same function",
	Run: run,
}

type opKind int

const (
	opLock opKind = iota
	opUnlock
	opReturn
)

// event is one mutex operation or return statement, in source order.
type event struct {
	kind     opKind
	key      string // printed receiver expression, e.g. "r.polMu"
	qual     string // "Type.field" for ranked lookup, "" if unranked
	read     bool   // RLock/RUnlock
	deferred bool   // unlock scheduled by a defer statement
	pos      token.Pos
}

func run(pass *lintkit.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkBody(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkBody(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// collect flattens a function body into mutex events in source order,
// without descending into nested function literals (they execute on
// their own schedule) — except literals inside a defer statement,
// whose unlocks count as deferred releases of the enclosing function.
func collect(pass *lintkit.Pass, body *ast.BlockStmt) []event {
	var events []event
	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.FuncLit:
				return false // separate schedule; analyzed on its own
			case *ast.DeferStmt:
				if ev, ok := mutexOp(pass, x.Call); ok {
					ev.deferred = true
					events = append(events, ev)
					return false
				}
				if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
					// defer func() { ... mu.Unlock() ... }()
					ast.Inspect(lit.Body, func(d ast.Node) bool {
						if call, ok := d.(*ast.CallExpr); ok {
							if ev, ok := mutexOp(pass, call); ok && ev.kind == opUnlock {
								ev.deferred = true
								events = append(events, ev)
							}
						}
						return true
					})
					return false
				}
				return false
			case *ast.ReturnStmt:
				events = append(events, event{kind: opReturn, pos: x.Pos()})
			case *ast.CallExpr:
				if ev, ok := mutexOp(pass, x); ok {
					ev.deferred = inDefer
					events = append(events, ev)
				}
			}
			return true
		})
	}
	walk(body, false)
	return events
}

// mutexOp recognizes x.Lock / x.RLock / x.Unlock / x.RUnlock calls on
// sync.Mutex / sync.RWMutex values.
func mutexOp(pass *lintkit.Pass, call *ast.CallExpr) (event, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return event{}, false
	}
	var kind opKind
	var read bool
	switch sel.Sel.Name {
	case "Lock":
		kind = opLock
	case "RLock":
		kind, read = opLock, true
	case "Unlock":
		kind = opUnlock
	case "RUnlock":
		kind, read = opUnlock, true
	default:
		return event{}, false
	}
	recv := sel.X
	if !isMutex(pass.TypesInfo.TypeOf(recv)) {
		return event{}, false
	}
	return event{
		kind: kind,
		key:  types.ExprString(recv),
		qual: qualifiedField(pass, recv),
		read: read,
		pos:  call.Pos(),
	}, true
}

func isMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// qualifiedField resolves a mutex receiver of the form base.field to
// "BaseType.field" for the rank table.
func qualifiedField(pass *lintkit.Pass, recv ast.Expr) string {
	sel, ok := recv.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name() + "." + sel.Sel.Name
}

type held struct {
	key  string
	rank int
	read bool
}

func checkBody(pass *lintkit.Pass, body *ast.BlockStmt) {
	events := collect(pass, body)

	// Check 1: acquisition order against the rank table, tracked
	// linearly through the event stream (branch-insensitive: a lock
	// is held from its Lock until its first non-deferred Unlock).
	var holds []held
	for _, ev := range events {
		switch ev.kind {
		case opLock:
			r, ranked := rank[ev.qual]
			for _, h := range holds {
				if h.key == ev.key && !(h.read && ev.read) {
					pass.Reportf(ev.pos, "recursive lock of %s (already held here)", ev.key)
				}
				if ranked && h.rank > r {
					pass.Reportf(ev.pos, "acquires %s while holding %s, inverting the lock hierarchy; %s",
						ev.key, h.key, orderDoc)
				}
			}
			hr := -1
			if ranked {
				hr = r
			}
			holds = append(holds, held{key: ev.key, rank: hr, read: ev.read})
		case opUnlock:
			if !ev.deferred {
				for i := len(holds) - 1; i >= 0; i-- {
					if holds[i].key == ev.key {
						holds = append(holds[:i], holds[i+1:]...)
						break
					}
				}
			}
		}
	}

	// Check 2: release discipline. For each Lock, the first matching
	// release must be a defer, or must come with no return statement
	// in between (an early return would leave the mutex held).
	for i, ev := range events {
		if ev.kind != opLock {
			continue
		}
		releaseIdx := -1
		for j := i + 1; j < len(events); j++ {
			e := events[j]
			if e.kind == opUnlock && e.key == ev.key {
				releaseIdx = j
				break
			}
			// A deferred unlock registered before the lock (defer runs
			// at exit, order irrelevant) also releases it.
		}
		if releaseIdx == -1 {
			// A defer registered earlier in the function still releases.
			for j := 0; j < i; j++ {
				if events[j].kind == opUnlock && events[j].deferred && events[j].key == ev.key {
					releaseIdx = j
					break
				}
			}
		}
		if releaseIdx == -1 {
			pass.Reportf(ev.pos, "%s.Lock() is never released in this function; use defer %s.Unlock() (or annotate a deliberate handoff)",
				ev.key, ev.key)
			continue
		}
		rel := events[releaseIdx]
		if rel.deferred || releaseIdx < i {
			continue
		}
		for j := i + 1; j < releaseIdx; j++ {
			if events[j].kind == opReturn {
				pass.Reportf(ev.pos, "%s is still locked on the return path at line %d; use defer %s.Unlock()",
					ev.key, pass.Fset.Position(events[j].pos).Line, ev.key)
				break
			}
		}
	}
}
