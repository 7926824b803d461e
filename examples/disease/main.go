// The paper's running example end-to-end: the disease-susceptibility
// workflow of Fig. 1, executed (Fig. 4), viewed through an access view
// (Fig. 2), keyword-searched (Fig. 5), and structurally queried with
// the paper's Section 4 example query.
package main

import (
	"fmt"
	"log"

	"provpriv"
)

func main() {
	log.SetFlags(0)
	spec := provpriv.DiseaseSusceptibility()

	// Privacy policy motivated by Section 3: genetic inputs and the
	// inferred disorders are sensitive data; the OMIM consultation
	// detail (W4) is visible only to analysts and above.
	pol := provpriv.NewPolicy(spec.ID)
	pol.DataLevels["snps"] = provpriv.Owner
	pol.DataLevels["family_history"] = provpriv.Owner
	pol.DataLevels["disorders"] = provpriv.Analyst
	pol.ViewGrants[provpriv.Registered] = []string{"W2", "W3"}
	pol.ViewGrants[provpriv.Analyst] = []string{"W4"}

	r := provpriv.NewRepository()
	if err := r.AddSpec(spec, pol); err != nil {
		log.Fatalf("add spec: %v", err)
	}
	e, err := provpriv.NewRunner(spec, nil).Run("E1", map[string]provpriv.Value{
		"snps": "rs123,rs456", "ethnicity": "eth1", "lifestyle": "active",
		"family_history": "cardiac", "symptoms": "fatigue",
	})
	if err != nil {
		log.Fatalf("run: %v", err)
	}
	if err := r.AddExecution(e); err != nil {
		log.Fatalf("add execution: %v", err)
	}
	r.AddUser(provpriv.User{Name: "patient", Level: provpriv.Owner, Group: "owners"})
	r.AddUser(provpriv.User{Name: "student", Level: provpriv.Registered, Group: "students"})
	r.AddUser(provpriv.User{Name: "visitor", Level: provpriv.Public, Group: "public"})

	fmt.Println("== execution (Fig. 4) ==")
	fmt.Print(e.ASCII())

	fmt.Println("\n== the patient's view vs the student's view of the same run ==")
	h, _ := provpriv.NewHierarchy(spec)
	full, _ := provpriv.CollapseExecution(e, spec, provpriv.FullPrefix(h))
	student, _ := provpriv.CollapseExecution(e, spec, pol.AccessView(h, provpriv.Registered))
	fmt.Printf("patient sees %d nodes; student sees %d (W4 collapsed into S3:M4)\n",
		len(full.Nodes), len(student.Nodes))

	fmt.Println("\n== keyword search (Fig. 5) ==")
	for _, user := range []string{"patient", "student"} {
		hits, err := r.Search(user, "database, disorder risks", provpriv.SearchOptions{})
		if err != nil {
			log.Fatalf("search as %s: %v", user, err)
		}
		for _, hit := range hits {
			fmt.Printf("%s: view {%v} zoomedOut=%v\n", user, hit.Result.Prefix().IDs(), hit.Result.ZoomedOut)
		}
	}

	fmt.Println("\n== structural query (Section 4's example) ==")
	q := `MATCH a = "expand snp", b = "query omim" WHERE a ~> b RETURN provenance(b)`
	ans, err := r.Query("patient", spec.ID, "E1", q)
	if err != nil {
		log.Fatalf("query: %v", err)
	}
	fmt.Print(ans.Render())
	if len(ans.Provenance) > 0 {
		fmt.Println("provenance of Query OMIM's output:")
		fmt.Print(ans.Provenance[0].ASCII())
	}

	// The same query as the student: M6 runs inside W4, which the
	// student's access view collapses — the engine zooms out.
	ansStudent, err := r.Query("student", spec.ID, "E1", q)
	if err != nil {
		log.Fatalf("student query: %v", err)
	}
	fmt.Printf("student's answer: %d bindings (zoomedOut=%v) — W4 detail is hidden\n",
		len(ansStudent.Bindings), ansStudent.ZoomedOut)

	fmt.Println("\n== taint-aware masking (internal/taint) ==")
	// Item values are symbolic computation traces that embed module
	// inputs verbatim, so the owner-only snps value used to survive
	// inside the public provenance of prognosis. Taint propagation
	// rewrites each embedded protected ancestor value to a mask token
	// (or its generalized form) before the trace is served.
	var prognosis string
	for _, id := range e.ItemIDs() {
		if e.Items[id].Attr == "prognosis" {
			prognosis = id
		}
	}
	prov, err := r.Provenance("visitor", spec.ID, "E1", prognosis)
	if err != nil {
		log.Fatalf("visitor provenance: %v", err)
	}
	fmt.Printf("raw prognosis trace (patient):\n  %s\n", e.Items[prognosis].Value)
	fmt.Printf("taint-masked trace (visitor):\n  %s\n", prov.Items[prognosis].Value)

	fmt.Println("\n== downstream impact ('what might be affected?') ==")
	var snpSet string
	for _, id := range e.ItemIDs() {
		if e.Items[id].Attr == "snp_set" {
			snpSet = id
		}
	}
	down, err := provpriv.Downstream(e, snpSet)
	if err != nil {
		log.Fatalf("downstream: %v", err)
	}
	fmt.Printf("items affected by the expanded SNP set %s: %v\n", snpSet, down)
}
