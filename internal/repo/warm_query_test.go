package repo

// The evaluator a shard keeps binds variables from tables derived from the
// spec alone and never invalidated; which modules a level may bind must
// still follow the policy, per request. These tests pin that: a policy
// update is honoured by the very next warm query, and a QueryAll that
// straddles one answers every execution under the one policy that was
// installed when the call began.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/query"
)

const warmSpec = "target"

// warmQueryRepo registers a three-module chain (M0 and M1 carry "alpha")
// with n executions E0.., an all-public policy, a public and an owner
// user, and a fan-out pool of one, so QueryAll visits executions in order.
func warmQueryRepo(t *testing.T, n int) *Repository {
	t.Helper()
	r := New()
	r.SetWorkers(1)
	s := chainSpec(t, warmSpec, "Alpha Loader", "Alpha Writer", "Gamma Reader")
	if err := r.AddSpec(s, nil); err != nil {
		t.Fatalf("AddSpec: %v", err)
	}
	for i := 0; i < n; i++ {
		e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("E%d", i), map[string]exec.Value{"a0": exec.Value(fmt.Sprintf("v%d", i))})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := r.AddExecution(e); err != nil {
			t.Fatalf("AddExecution: %v", err)
		}
	}
	r.AddUser(privacy.User{Name: "pub", Level: privacy.Public, Group: "g-pub"})
	r.AddUser(privacy.User{Name: "own", Level: privacy.Owner, Group: "g-own"})
	return r
}

// boundModules returns the sorted module ids an answer's bindings name.
func boundModules(t *testing.T, r *Repository, a *query.Answer) []string {
	t.Helper()
	execID, _, _ := strings.Cut(a.ExecutionID, "/") // answers name the served view, "E0/view/masked@public"
	e := r.execution(warmSpec, execID)
	var out []string
	for _, b := range a.Bindings {
		for _, nodeID := range b {
			out = append(out, e.Node(nodeID).Module)
		}
	}
	sort.Strings(out)
	return out
}

const alphaQuery = `MATCH a = "alpha"`

func TestWarmQueryHonoursRaisedModuleLevel(t *testing.T) {
	r := warmQueryRepo(t, 2)
	for _, q := range []string{alphaQuery, `MATCH a = "id:M0"`} {
		for i := 0; i < 2; i++ { // the second pass is warm
			for _, user := range []string{"pub", "own"} {
				ans, err := r.Query(user, warmSpec, "E0", q)
				if err != nil {
					t.Fatalf("Query: %v", err)
				}
				if got := boundModules(t, r, ans); len(got) == 0 || got[0] != "M0" {
					t.Fatalf("%s binds %v for %s before the update, want M0 among them", q, got, user)
				}
			}
		}
	}
	if err := r.UpdatePolicy(warmSpec, hiding(warmSpec, privacy.Owner, "M0")); err != nil {
		t.Fatalf("UpdatePolicy: %v", err)
	}
	for _, tc := range []struct {
		user, q string
		want    []string
	}{
		{"pub", alphaQuery, []string{"M1"}},
		{"pub", `MATCH a = "id:M0"`, nil},
		{"own", alphaQuery, []string{"M0", "M1"}},
		{"own", `MATCH a = "id:M0"`, []string{"M0"}},
	} {
		ans, err := r.Query(tc.user, warmSpec, "E0", tc.q)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		if got := boundModules(t, r, ans); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("after M0 was raised to owner, %s binds %v for %s, want %v", tc.q, got, tc.user, tc.want)
		}
		all, err := r.QueryAll(tc.user, warmSpec, tc.q)
		if err != nil {
			t.Fatalf("QueryAll: %v", err)
		}
		for _, a := range all {
			if got := boundModules(t, r, a); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("after M0 was raised to owner, QueryAll %s binds %v in %s for %s, want %v", tc.q, got, a.ExecutionID, tc.user, tc.want)
			}
		}
	}
}

// TestQueryAllAcrossPolicyUpdateAnswersUnderOnePolicy: QueryAllPageCtx
// reads the enforcement state once, with the execution list, and fills and
// binds every execution under it. A policy installed while the fan-out is
// under way — here between the second and the third execution, the call
// parked on a gate — therefore changes nothing in the response: all four
// answers bind what the all-public policy lets the level bind, cold or
// warm, never two under one policy and two under the other. The next call
// answers under the new policy.
func TestQueryAllAcrossPolicyUpdateAnswersUnderOnePolicy(t *testing.T) {
	for _, warm := range []bool{false, true} {
		t.Run(fmt.Sprintf("warm=%v", warm), func(t *testing.T) {
			r := warmQueryRepo(t, 4)
			if warm {
				if _, err := r.QueryAll("pub", warmSpec, alphaQuery); err != nil {
					t.Fatalf("warming QueryAll: %v", err)
				}
			}
			// QueryAllPageCtx asks its context whether the caller is gone once
			// before it decides a view plan's bindings and once before it builds
			// each answer. The executions share one shape, so the third call is
			// the check before E1's answer is built: parking it stops the call
			// with every binding decided and E0's answer built.
			ctx := parkAt(3)
			type result struct {
				answers []*query.Answer
				err     error
			}
			done := make(chan result, 1)
			go func() {
				answers, _, err := r.QueryAllPageCtx(ctx, "pub", warmSpec, alphaQuery, 0, 0)
				done <- result{answers, err}
			}()
			select {
			case <-ctx.reached:
			case res := <-done:
				// A call that asks its context fewer than three times never
				// parks: fail here, not at go test's timeout.
				t.Fatalf("QueryAllPageCtx returned (%d answers, %v) without asking its context a third time", len(res.answers), res.err)
			}
			if err := r.UpdatePolicy(warmSpec, hiding(warmSpec, privacy.Owner, "M0")); err != nil {
				t.Fatalf("UpdatePolicy: %v", err)
			}
			close(ctx.release)
			res := <-done
			if res.err != nil {
				t.Fatalf("QueryAllPageCtx: %v", res.err)
			}
			if len(res.answers) != 4 {
				t.Fatalf("%d answers, want one per execution", len(res.answers))
			}
			for _, a := range res.answers {
				if got := boundModules(t, r, a); fmt.Sprint(got) != "[M0 M1]" {
					t.Errorf("%s binds %v, want [M0 M1]: the policy installed when the call began decides the whole response", a.ExecutionID, got)
				}
			}
			after, err := r.QueryAll("pub", warmSpec, alphaQuery)
			if err != nil || len(after) != 4 {
				t.Fatalf("QueryAll after the update: %d answers, %v", len(after), err)
			}
			for _, a := range after {
				if got := boundModules(t, r, a); fmt.Sprint(got) != "[M1]" {
					t.Errorf("after the update %s binds %v, want [M1]", a.ExecutionID, got)
				}
			}
		})
	}
}
