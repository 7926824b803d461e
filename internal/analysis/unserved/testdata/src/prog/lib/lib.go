package lib

import (
	"encoding/json"
	"flag"
	"fmt"
	"sort"
)

// Entry is what the fixture's main calls.
func Entry() error {
	f := func() { fromClosure() }
	f()
	g := T{}.viaMethodValue
	g()
	var s shape = circle{}
	_ = s.area()
	var uf userFlags
	flag.Var(&uf, "user", "name=level")
	describe(named{})
	_, _ = json.Marshal(payload{})
	var byLength sortable = byLen{"bb", "a"}
	sort.Sort(byLength)
	return myErr{}
}

func Orphan() {} // want "lib\\.Orphan is reached from no root \\(1 line\\)"

// T carries methods reached and not.
type T struct{}

func (T) viaMethodValue() {}

func (T) Dead() {} // want "\\(lib\\.T\\)\\.Dead is reached from no root"

func (*T) DeadPtr() {} // want "\\(\\*lib\\.T\\)\\.DeadPtr is reached from no root"

// ping and pong reach each other and nothing reaches either.
func ping(n int) { // want "lib\\.ping is reached from no root \\(6 lines\\)"
	if n > 0 {
		pong(n - 1)
	}
}

func pong(n int) { ping(n) } // want "lib\\.pong is reached from no root"

var hook = fromVar

var table = map[string]func(){"x": func() { fromVarClosure() }}

func fromVar()        {}
func fromVarClosure() {}

func init() { fromInit() }

func fromInit()    {}
func fromClosure() {}

type shape interface{ area() int }

type circle struct{}

func (circle) area() int { return 1 }

// square satisfies shape too, so a call through shape may reach it.
type square struct{}

func (square) area() int { return 4 }

func (square) side() int { return 2 } // want "\\(lib\\.square\\)\\.side is reached from no root"

type userFlags map[string]string

func (u *userFlags) String() string { return fmt.Sprint(map[string]string(*u)) }

func (u *userFlags) Set(v string) error { (*u)[v] = v; return nil }

// sortable declares sort.Interface's methods itself, so only a sortable
// used as a sort.Interface reaches them.
type sortable interface {
	Len() int
	Less(i, j int) bool
	Swap(i, j int)
}

type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

type named struct{}

func (named) String() string { return "named" }

func describe(s fmt.Stringer) {}

type payload struct{ In inner }

type inner struct{}

func (inner) MarshalJSON() ([]byte, error) { return []byte(`"inner"`), nil }

type myErr struct{}

func (myErr) Error() string { return "my" }

// Kept is an oracle the fixture's tests would use.
//
//provlint:ignore unserved reference kept for a test
func Kept() { keptCallee() }

func keptCallee() {}

// OnlyTests is called by the libtest package alone.
func OnlyTests() {}

// FromFacade is called by the facade alone, through what the main calls.
func FromFacade() {}

// quiet is never converted to an interface, so nothing dispatches to it.
type quiet struct{}

func (quiet) String() string { return "quiet" } // want "\\(lib\\.quiet\\)\\.String is reached from no root"
