// Command provgen generates a synthetic provenance-aware workflow
// repository on disk: workflow specifications, privacy policies and
// executions. It substitutes for the public scientific-workflow
// repositories the paper assumes.
//
//	provgen -out ./data -specs 5 -execs 3 -depth 3 -fanout 2 -chain 4 -seed 1
//
// The repository is written in the crash-safe log-engine layout
// (per-shard checkpoint + log, committed by an atomic manifest swap).
package main

import (
	"flag"
	"fmt"
	"log"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/repo"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// corpus is the generated content.
type corpus struct {
	specs []*workflow.Spec
	pols  []*privacy.Policy // nil entries when -policies=false
	execs [][]*exec.Execution
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("provgen: ")
	out := flag.String("out", "provdata", "output directory")
	nSpecs := flag.Int("specs", 5, "number of specifications")
	nExecs := flag.Int("execs", 3, "executions per specification")
	depth := flag.Int("depth", 3, "expansion-hierarchy depth")
	fanout := flag.Int("fanout", 2, "composite modules per workflow")
	chain := flag.Int("chain", 4, "modules per workflow chain")
	skip := flag.Float64("skip", 0.3, "skip-edge probability")
	seed := flag.Int64("seed", 1, "random seed")
	withPolicies := flag.Bool("policies", true, "generate a random privacy policy per spec")
	flag.Parse()

	c := generate(*nSpecs, *nExecs, *depth, *fanout, *chain, *skip, *seed, *withPolicies)
	if err := writeLog(*out, c); err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, es := range c.execs {
		total += len(es)
	}
	fmt.Printf("wrote %d specs, %d executions to %s\n", len(c.specs), total, *out)
}

func generate(nSpecs, nExecs, depth, fanout, chain int, skip float64, seed int64, withPolicies bool) corpus {
	var c corpus
	for i := 0; i < nSpecs; i++ {
		cfg := workload.SpecConfig{
			Seed:     seed + int64(i),
			ID:       fmt.Sprintf("synth-%d", i),
			Depth:    depth,
			Fanout:   fanout,
			Chain:    chain,
			SkipProb: skip,
		}
		spec, err := workload.RandomSpec(cfg)
		if err != nil {
			log.Fatalf("generate spec %d: %v", i, err)
		}
		var pol *privacy.Policy
		if withPolicies {
			if pol, err = workload.RandomPolicy(spec, seed+int64(i)); err != nil {
				log.Fatalf("generate policy %d: %v", i, err)
			}
		}
		runner := exec.NewRunner(spec, nil)
		execs := make([]*exec.Execution, 0, nExecs)
		for j := 0; j < nExecs; j++ {
			e, err := runner.Run(fmt.Sprintf("%s-E%d", spec.ID, j),
				workload.RandomInputs(spec, seed+int64(i*1000+j)))
			if err != nil {
				log.Fatalf("execute %s run %d: %v", spec.ID, j, err)
			}
			execs = append(execs, e)
		}
		c.specs = append(c.specs, spec)
		c.pols = append(c.pols, pol)
		c.execs = append(c.execs, execs)
	}
	return c
}

// writeLog persists the corpus through the storage engine: one
// repository save, so the output is exactly what the server writes.
func writeLog(out string, c corpus) error {
	r := repo.New()
	for i, spec := range c.specs {
		if err := r.AddSpec(spec, c.pols[i]); err != nil {
			return fmt.Errorf("add spec %s: %w", spec.ID, err)
		}
		for _, e := range c.execs[i] {
			if err := r.AddExecution(e); err != nil {
				return fmt.Errorf("add execution %s: %w", e.ID, err)
			}
		}
	}
	if err := r.Save(out); err != nil {
		return fmt.Errorf("save %s: %w", out, err)
	}
	return r.CloseStorage()
}
