// Command provaudit audits a privacy policy against a workflow
// specification: it reports what each access level can see — the access
// view the engine serves, with the composite of every pair hidden from
// the level withdrawn — and flags potential downstream leaks where a
// protected attribute flows into a module whose outputs are public — the
// workflow-privacy pitfall of module privacy.
//
//	provaudit -example
//	provaudit -spec spec.json -policy policy.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"provpriv/internal/audit"
	"provpriv/internal/privacy"
	"provpriv/internal/workflow"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("provaudit: ")
	specPath := flag.String("spec", "", "workflow specification JSON")
	polPath := flag.String("policy", "", "policy JSON")
	example := flag.Bool("example", false, "audit the built-in paper example")
	flag.Parse()

	var spec *workflow.Spec
	var pol *privacy.Policy
	switch {
	case *example:
		spec = workflow.DiseaseSusceptibility()
		pol = privacy.NewPolicy(spec.ID)
		pol.DataLevels["snps"] = privacy.Owner
		pol.DataLevels["disorders"] = privacy.Analyst
		pol.ModuleLevels["M6"] = privacy.Owner
		pol.Structural = []privacy.HiddenPair{{From: "M13", To: "M11", Level: privacy.Owner}}
		pol.ViewGrants[privacy.Registered] = []string{"W2"}
		pol.ViewGrants[privacy.Analyst] = []string{"W3", "W4"}
	case *specPath != "" && *polPath != "":
		data, err := os.ReadFile(*specPath)
		if err != nil {
			log.Fatalf("read spec: %v", err)
		}
		spec, err = workflow.UnmarshalSpec(data)
		if err != nil {
			log.Fatalf("parse spec: %v", err)
		}
		pdata, err := os.ReadFile(*polPath)
		if err != nil {
			log.Fatalf("read policy: %v", err)
		}
		// Strict, as the server decodes a policy: a field the policy does
		// not have, such as a Γ requirement or a typo, is refused rather
		// than audited away.
		dec := json.NewDecoder(bytes.NewReader(pdata))
		dec.DisallowUnknownFields()
		pol = &privacy.Policy{}
		if err := dec.Decode(pol); err != nil {
			log.Fatalf("parse policy: %v", err)
		}
	default:
		log.Fatal("need -example or both -spec and -policy")
	}

	rep, err := audit.Run(spec, pol)
	if err != nil {
		log.Fatalf("audit: %v", err)
	}
	fmt.Print(rep.Render())
}
