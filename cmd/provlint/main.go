// Command provlint runs the repository's invariant analyzers (see
// internal/analysis) over a package pattern, vet-style:
//
//	provlint ./...
//
// Findings print one per line as file:line:col: message (check) and
// the exit status is 1 if any survive //provlint:ignore suppression,
// so CI can gate on it exactly like go vet. -bench writes analyzer
// wall times as JSON; -list prints the suite with each check's
// contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"provpriv/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and their invariants, then exit")
	bench := flag.String("bench", "", "write analyzer wall-time JSON to this path")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: provlint [-list] [-bench out.json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.Suite {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	res, err := analysis.RunTree(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "provlint:", err)
		os.Exit(2)
	}

	if *bench != "" {
		report := map[string]any{
			"packages":     res.Packages,
			"load_wall_ms": float64(res.LoadWall.Nanoseconds()) / 1e6,
			"checks":       res.Timings,
			"findings":     len(res.Findings),
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "provlint:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*bench, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "provlint:", err)
			os.Exit(2)
		}
	}

	for _, f := range res.Findings {
		fmt.Println(f)
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "provlint: %d finding(s)\n", len(res.Findings))
		os.Exit(1)
	}
}
