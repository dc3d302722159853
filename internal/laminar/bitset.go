package laminar

// bitset is a fixed-size bit vector over machine indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << uint(i%64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<uint(i%64)) != 0 }

func (b bitset) orIn(o bitset) {
	for i := range o {
		b[i] |= o[i]
	}
}

func (b bitset) subsetOf(o bitset) bool {
	for i := range b {
		if b[i]&^o[i] != 0 {
			return false
		}
	}
	return true
}
