package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/repo"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// TestParallelLoadServesSameBodies loads one saved directory — six shards,
// two of them deep, each with a log past its checkpoint — with a fan-out pool
// of one (a serial load) and of four, and serves a seeded sample of /search,
// /query and /provenance requests from each: every body must be
// byte-identical.
func TestParallelLoadServesSameBodies(t *testing.T) {
	r := repo.New()
	users := []string{"pub", "reg", "ana", "own"}
	for i, l := range []privacy.Level{privacy.Public, privacy.Registered, privacy.Analyst, privacy.Owner} {
		r.AddUser(privacy.User{Name: users[i], Level: l, Group: users[i]})
	}
	specs := make([]*workflow.Spec, 6)
	runs := map[string][]*exec.Execution{}
	for i := range specs {
		s, err := workload.RandomSpec(workload.SpecConfig{Seed: int64(i + 1), ID: fmt.Sprintf("s%d", i), Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := workload.RandomPolicy(s, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.AddSpec(s, pol); err != nil {
			t.Fatal(err)
		}
		specs[i] = s
	}
	dir := t.TempDir()
	addRuns := func(from, to int) {
		for i, s := range specs {
			lo, hi := from, to
			if i < 2 {
				lo, hi = 10*from, 10*to // the deep shards
			}
			for j := lo; j < hi; j++ {
				e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("%s-E%03d", s.ID, j), workload.RandomInputs(s, int64(100*i+j)))
				if err != nil {
					t.Fatal(err)
				}
				if err := r.AddExecution(e); err != nil {
					t.Fatal(err)
				}
				runs[s.ID] = append(runs[s.ID], e)
			}
		}
		if err := r.Save(dir); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	addRuns(0, 3)
	addRuns(3, 5) // appended to each shard's log
	if err := r.CloseStorage(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	var paths []string
	for k := 0; k < 60; k++ {
		s := specs[rng.Intn(len(specs))]
		wid := s.WorkflowIDs()[rng.Intn(len(s.WorkflowIDs()))]
		mods := s.Workflows[wid].Modules
		m := mods[rng.Intn(len(mods))]
		es := runs[s.ID]
		e := es[rng.Intn(len(es))]
		items := e.ItemIDs()
		user := users[rng.Intn(len(users))]
		paths = append(paths,
			"/api/v1/search?user="+user+"&q="+url.QueryEscape(m.AllKeywords()[0]),
			"/api/v1/query?user="+user+"&spec="+s.ID+"&exec="+e.ID+"&q="+url.QueryEscape(`MATCH a = "`+m.Name+`" RETURN provenance(a)`),
			"/api/v1/query?user="+user+"&spec="+s.ID+"&limit=5&q="+url.QueryEscape(`MATCH a = "`+m.Name+`"`),
			"/api/v1/provenance?user="+user+"&spec="+s.ID+"&exec="+e.ID+"&item="+items[rng.Intn(len(items))],
		)
	}

	serve := func(procs int) (bodies [][]byte, ok int) {
		var loaded *repo.Repository
		var err error
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			loaded, err = repo.Load(dir)
		}()
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: Load: %v", procs, err)
		}
		defer loaded.CloseStorage()
		h := New(loaded).Handler()
		for _, p := range paths {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, p, nil))
			if w.Code == http.StatusOK {
				ok++
			}
			bodies = append(bodies, fmt.Appendf(nil, "%d %s", w.Code, w.Body.Bytes()))
		}
		return bodies, ok
	}
	serial, ok := serve(1)
	parallel, _ := serve(4)
	if ok < len(paths)/2 {
		t.Fatalf("only %d of %d sampled requests answered 200: the sample exercises too little", ok, len(paths))
	}
	for i, p := range paths {
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Fatalf("%s:\nserial   %s\nparallel %s", p, serial[i], parallel[i])
		}
	}
}
