package unserved_test

import (
	"testing"

	"provpriv/internal/analysis/lintkit/linttest"
	"provpriv/internal/analysis/unserved"
)

// TestUnserved loads a four-package program — a library, a *test
// package, the facade at the module root and a main — and checks what
// each root rule keeps reached. The facade is no root: its export the
// main calls is reached, the one nothing calls is reported.
func TestUnserved(t *testing.T) {
	linttest.Run(t, unserved.Analyzer, "prog/lib", "prog/libtest", "prog", "prog/cmd/tool")
}
