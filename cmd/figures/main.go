// Command figures regenerates the figures of the CIDR 2011 paper
// "Enabling Privacy in Provenance-Aware Workflow Systems" from the
// library's implementation of its running example:
//
//	figures -fig 1   workflow specification (Fig. 1)
//	figures -fig 2   provenance-graph view under prefix {W1} (Fig. 2)
//	figures -fig 3   expansion hierarchy (Fig. 3)
//	figures -fig 4   full execution (Fig. 4)
//	figures -fig 5   result of keyword query "database, disorder risks" (Fig. 5)
//	figures -fig 0   all of the above
//
// Pass -dot for Graphviz output instead of ASCII.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"provpriv/internal/exec"
	"provpriv/internal/graph"
	"provpriv/internal/search"
	"provpriv/internal/workflow"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	fig := flag.Int("fig", 0, "figure number (1-5); 0 = all")
	dot := flag.Bool("dot", false, "emit Graphviz DOT instead of ASCII")
	flag.Parse()

	spec := workflow.DiseaseSusceptibility()
	e, err := exec.NewRunner(spec, nil).Run("E1", map[string]exec.Value{
		"snps": "rs123", "ethnicity": "eth1", "lifestyle": "active",
		"family_history": "fh1", "symptoms": "none",
	})
	if err != nil {
		log.Fatalf("execute: %v", err)
	}

	show := func(n int) {
		switch n {
		case 1:
			header(1, "Disease Susceptibility Workflow Specification")
			if *dot {
				h, _ := workflow.NewHierarchy(spec)
				v, err := workflow.Expand(spec, fullSpecView(h))
				if err != nil {
					log.Fatalf("fig 1: %v", err)
				}
				fmt.Println(v.DOT())
				break
			}
			// The paper draws each workflow separately with τ edges for
			// the composite expansions.
			h, _ := workflow.NewHierarchy(spec)
			for _, wid := range h.All() {
				w := spec.Workflows[wid]
				fmt.Printf("%s (%s):\n", w.ID, w.Name)
				for _, m := range w.Modules {
					tag := ""
					if m.Kind == workflow.Composite {
						tag = fmt.Sprintf("  --τ--> %s", m.Sub)
					}
					fmt.Printf("  %-4s %-28s%s\n", m.ID, m.Name, tag)
				}
				for _, e := range w.Edges {
					fmt.Printf("    %s -> %s  [%s]\n", e.From, e.To, strings.Join(e.Data, ","))
				}
			}
			if st, err := workflow.ComputeStats(spec); err == nil {
				fmt.Println(st)
			}
		case 2:
			view, err := exec.Collapse(e, spec, workflow.NewPrefix("W1"))
			if err != nil {
				log.Fatalf("fig 2: %v", err)
			}
			header(2, "View of Provenance Graph (prefix {W1})")
			if *dot {
				fmt.Println(view.DOT())
			} else {
				fmt.Print(view.ASCII())
			}
		case 3:
			h, err := workflow.NewHierarchy(spec)
			if err != nil {
				log.Fatalf("fig 3: %v", err)
			}
			header(3, "Expansion Hierarchy")
			if *dot {
				fmt.Println(h.Graph().DOT(graph.DotOptions{Name: "hierarchy", Rankdir: "TB"}))
			} else {
				fmt.Print(h.ASCII())
			}
		case 4:
			header(4, "Disease Susceptibility Workflow Execution")
			if *dot {
				fmt.Println(e.DOT())
			} else {
				fmt.Print(e.ASCII())
			}
		case 5:
			res, err := search.Search(spec, search.ParseQuery("Database, Disorder Risks"))
			if err != nil {
				log.Fatalf("fig 5: %v", err)
			}
			view, err := res.View()
			if err != nil {
				log.Fatalf("fig 5: %v", err)
			}
			header(5, `Result of Query "Database, Disorder Risks"`)
			if *dot {
				fmt.Println(view.DOT())
			} else {
				fmt.Print(view.ASCII())
				fmt.Println("matches:")
				for _, m := range res.Matches {
					fmt.Printf("  %q -> %s (in %s)\n", m.Phrase, m.ModuleID, m.Workflow)
				}
			}
		default:
			log.Fatalf("unknown figure %d (want 1-5)", n)
		}
	}

	if *fig == 0 {
		for n := 1; n <= 5; n++ {
			show(n)
			fmt.Println()
		}
		return
	}
	show(*fig)
}

func header(n int, title string) {
	fmt.Printf("== Figure %d: %s ==\n", n, title)
}

func fullSpecView(h *workflow.Hierarchy) workflow.Prefix {
	return workflow.FullPrefix(h)
}
