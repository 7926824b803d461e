package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newBitset(n int) *Bitset { return &Bitset{words: make([]uint64, (n+63)/64)} }

func TestBitsetBasic(t *testing.T) {
	b := newBitset(130)
	for _, i := range []int{0, 63, 64, 127, 129} {
		b.Set(i)
	}
	for _, i := range []int{0, 63, 64, 127, 129} {
		if !b.Has(i) {
			t.Fatalf("Has(%d) = false after Set", i)
		}
	}
	if b.Has(1) || b.Has(128) {
		t.Fatal("spurious bits set")
	}
}

func TestBitsetSetOps(t *testing.T) {
	a := newBitset(100)
	b := newBitset(100)
	a.Set(1)
	a.Set(2)
	b.Set(2)
	b.Set(3)

	a.Or(b)
	for i := 0; i < 100; i++ {
		if a.Has(i) != (i >= 1 && i <= 3) {
			t.Fatalf("Or wrong at %d: Has = %v", i, a.Has(i))
		}
	}
}

// Property: a bitset behaves like a map[int]bool under random ops.
func TestBitsetQuickVsMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 256
		b := newBitset(n)
		m := make(map[int]bool)
		for op := 0; op < 500; op++ {
			i := rng.Intn(n)
			switch rng.Intn(2) {
			case 0:
				b.Set(i)
				m[i] = true
			case 1:
				if b.Has(i) != m[i] {
					return false
				}
			}
		}
		for i := 0; i < n; i++ {
			if b.Has(i) != m[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Or is the union, so it is commutative.
func TestBitsetQuickAlgebra(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := newBitset(256), newBitset(256)
		in := make(map[int]bool)
		for _, x := range xs {
			a.Set(int(x))
			in[int(x)] = true
		}
		for _, y := range ys {
			b.Set(int(y))
			in[int(y)] = true
		}
		ab, ba := newBitset(256), newBitset(256)
		ab.Or(a)
		ab.Or(b)
		ba.Or(b)
		ba.Or(a)
		for i := 0; i < 256; i++ {
			if ab.Has(i) != in[i] || ba.Has(i) != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDOT(t *testing.T) {
	g, _, _, _, _ := diamond()
	dot := g.DOT(DotOptions{Name: "D", Rankdir: "LR"})
	for _, want := range []string{`digraph "D"`, `rankdir=LR`, `"s" -> "a"`, `"b" -> "t"`} {
		if !contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
