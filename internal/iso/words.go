package iso

// This file holds the word-packed primitives under the large-graph engine:
// a []uint64 bitset the worklist refinement marks a pass's split cells in
// without clearing O(n) state per pass, a merge sort of a split's touched
// vertices by their flat counts (the comparator never escapes to an
// interface or allocates), and the varint append helper of the sparse
// O(n+m) canonical word. Everything here is allocation-free after warmup;
// see DESIGN.md §13.

// bitset is a packed bit vector. All methods take int32 indices because the
// refinement scratch is int32-indexed throughout.
type bitset []uint64

func (b bitset) test(i int32) bool { return b[uint32(i)>>6]&(1<<(uint32(i)&63)) != 0 }
func (b bitset) set(i int32)       { b[uint32(i)>>6] |= 1 << (uint32(i) & 63) }
func (b bitset) clear(i int32)     { b[uint32(i)>>6] &^= 1 << (uint32(i) & 63) }

// sortInt32s sorts a ascending in place (insertion sort: the inputs — the
// positions of one word block, one vertex's neighbors — are short, and
// this keeps the hot path free of sort.Slice's closure allocation).
func sortInt32s(a []int32) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// appendUvarint appends v in unsigned LEB128 form. Values below 0x80 (the
// overwhelmingly common case: multiplicities and small positions) encode as
// a single byte, so the sparse word stays near its information-theoretic
// size and remains comparable bytewise.
func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// sortByCnt sorts a split cell's touched vertices by the flat count pair
// (cntOut[v], cntIn[v]), ascending, or descending for a complement key.
// Its stability is not needed: only the order of the fragments it cuts
// carries meaning. Small segments use insertion sort, larger ones a
// bottom-up merge sort over st.sortTmp, so sorting c vertices costs
// O(c log c) with no allocation and no per-comparison indirection.
func (st *canonState) sortByCnt(a []int, desc bool) {
	cntOut, cntIn := st.cntOut, st.cntIn
	var flip uint64
	if desc {
		flip = ^uint64(0)
	}
	key := func(v int) uint64 { return (uint64(cntOut[v])<<32 | uint64(cntIn[v])) ^ flip }
	if len(a) <= 24 {
		for i := 1; i < len(a); i++ {
			x := a[i]
			kx := key(x)
			j := i - 1
			for j >= 0 && kx < key(a[j]) {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = x
		}
		return
	}
	tmp := st.sortTmp[:len(a)]
	// Bottom-up merge: runs double each round.
	src, dst := a, tmp
	for width := 1; width < len(a); width <<= 1 {
		for lo := 0; lo < len(a); lo += 2 * width {
			mid := min(lo+width, len(a))
			hi := min(lo+2*width, len(a))
			i, j := lo, mid
			for k := lo; k < hi; k++ {
				if i < mid && (j >= hi || key(src[j]) >= key(src[i])) {
					dst[k] = src[i]
					i++
				} else {
					dst[k] = src[j]
					j++
				}
			}
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}
