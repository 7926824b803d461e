// Command provsearch loads a repository directory produced by provgen
// (or the built-in paper example) and answers keyword and structural
// queries as a user at a chosen access level — demonstrating the
// paper's privacy-integrated search engine.
//
// Keyword search over the built-in example:
//
//	provsearch -example -level 3 -query "database, disorder risks"
//
// Structural query over a generated repository:
//
//	provsearch -data ./provdata -level 1 -spec synth-0 -exec synth-0-E0 \
//	    -squery 'MATCH a = "query", b = "combine" WHERE a ~> b RETURN provenance(b)'
package main

import (
	"flag"
	"fmt"
	"log"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/query"
	"provpriv/internal/repo"
	"provpriv/internal/workflow"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("provsearch: ")
	data := flag.String("data", "", "repository directory from provgen")
	example := flag.Bool("example", false, "use the built-in paper example instead of -data")
	level := flag.Int("level", 0, "access level of the querying user (0=public)")
	queryText := flag.String("query", "", "keyword query, e.g. 'database, disorder risks'")
	squery := flag.String("squery", "", "structural query (MATCH ... WHERE ... RETURN ...)")
	specID := flag.String("spec", "", "spec id for -squery")
	execID := flag.String("exec", "", "execution id for -squery")
	buckets := flag.Int("buckets", 0, "privacy-aware ranking: bucketize scores into N buckets")
	zoom := flag.Bool("zoom", false, "evaluate -squery with the gradual zoom-out strategy")
	flag.Parse()

	var r *repo.Repository
	switch {
	case *example:
		r = repo.New()
		loadExample(r)
	case *data != "":
		var err error
		if r, err = repo.Load(*data); err != nil {
			log.Fatalf("load %s: %v", *data, err)
		}
		defer r.CloseStorage()
	default:
		log.Fatal("need -data DIR or -example")
	}
	user := privacy.User{Name: "cli", Level: privacy.Level(*level), Group: fmt.Sprintf("level%d", *level)}
	r.AddUser(user)
	fmt.Print(r.Describe())

	switch {
	case *queryText != "":
		hits, err := r.Search("cli", *queryText, repo.SearchOptions{Buckets: *buckets})
		if err != nil {
			log.Fatalf("search: %v", err)
		}
		if len(hits) == 0 {
			fmt.Println("no results")
			return
		}
		for i, h := range hits {
			fmt.Printf("[%d] %s score=%.3f view={%s}", i+1, h.SpecID, h.Score,
				joinIDs(h.Result.Prefix().IDs()))
			if h.Result.ZoomedOut {
				fmt.Print(" (zoomed out)")
			}
			fmt.Println()
			for _, m := range h.Result.Matches {
				if m.ZoomedTo != "" {
					fmt.Printf("    %q -> %s (shown as %s)\n", m.Phrase, m.ModuleID, m.ZoomedTo)
				} else {
					fmt.Printf("    %q -> %s (in %s)\n", m.Phrase, m.ModuleID, m.Workflow)
				}
			}
		}
	case *squery != "":
		if *specID == "" || *execID == "" {
			log.Fatal("-squery needs -spec and -exec")
		}
		var ans *query.Answer
		var err error
		if *zoom {
			res, zerr := r.QueryZoomOut("cli", *specID, *execID, *squery)
			if zerr != nil {
				log.Fatalf("query: %v", zerr)
			}
			fmt.Printf("zoom-out steps: %d, final view {%s}\n", res.Steps, joinIDs(res.Prefix.IDs()))
			ans = res.Answer
		} else {
			ans, err = r.Query("cli", *specID, *execID, *squery)
			if err != nil {
				log.Fatalf("query: %v", err)
			}
		}
		fmt.Print(ans.Render())
		for i, p := range ans.Provenance {
			fmt.Printf("provenance of binding %d:\n%s", i, p.ASCII())
		}
		for i, ds := range ans.Downstream {
			fmt.Printf("downstream of binding %d: %v\n", i, ds)
		}
	default:
		log.Fatal("need -query or -squery")
	}
}

func joinIDs(ids []string) string {
	out := ""
	for i, id := range ids {
		if i > 0 {
			out += ","
		}
		out += id
	}
	return out
}

func loadExample(r *repo.Repository) {
	spec := workflow.DiseaseSusceptibility()
	pol := privacy.NewPolicy(spec.ID)
	pol.DataLevels["snps"] = privacy.Owner
	pol.DataLevels["disorders"] = privacy.Analyst
	pol.ViewGrants[privacy.Registered] = []string{"W2"}
	pol.ViewGrants[privacy.Analyst] = []string{"W3", "W4"}
	if err := r.AddSpec(spec, pol); err != nil {
		log.Fatalf("example spec: %v", err)
	}
	e, err := exec.NewRunner(spec, nil).Run("E1", map[string]exec.Value{
		"snps": "rs123", "ethnicity": "eth1", "lifestyle": "active",
		"family_history": "fh1", "symptoms": "none",
	})
	if err != nil {
		log.Fatalf("example execution: %v", err)
	}
	if err := r.AddExecution(e); err != nil {
		log.Fatalf("example execution: %v", err)
	}
}
