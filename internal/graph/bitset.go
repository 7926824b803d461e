package graph

// Bitset is a fixed-capacity set of small non-negative integers, used
// for transitive closures and visited sets in the privacy algorithms.
type Bitset struct {
	words []uint64
}

// Set adds i to the set.
func (b *Bitset) Set(i int) { b.words[i/64] |= 1 << (uint(i) % 64) }

// Has reports whether i is in the set.
func (b *Bitset) Has(i int) bool { return b.words[i/64]&(1<<(uint(i)%64)) != 0 }

// Or sets b to the union of b and o. The two sets must have equal
// capacity.
func (b *Bitset) Or(o *Bitset) {
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
}
