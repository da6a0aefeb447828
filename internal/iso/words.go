package iso

// This file holds the word-packed primitives under the large-graph engine:
// a []uint64 bitset used by the worklist refinement to mark touched cells
// and split parents without clearing O(n) state per pass, a stable bottom-up
// merge sort over flat count arrays (the cell-splitting comparator never
// escapes to an interface or allocates), and varint append/compare helpers
// for the sparse O(n+m) canonical word. Everything here is allocation-free
// after warmup; see DESIGN.md §13.

// bitset is a packed bit vector. All methods take int32 indices because the
// refinement scratch is int32-indexed throughout.
type bitset []uint64

func (b bitset) test(i int32) bool { return b[uint32(i)>>6]&(1<<(uint32(i)&63)) != 0 }
func (b bitset) set(i int32)       { b[uint32(i)>>6] |= 1 << (uint32(i) & 63) }
func (b bitset) clear(i int32)     { b[uint32(i)>>6] &^= 1 << (uint32(i) & 63) }

// sortInt32s sorts a ascending in place (insertion sort: the inputs — split
// parents per pass, block positions per word block — are short and nearly
// sorted, and this keeps the hot path free of sort.Slice's closure
// allocation).
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

// sortCellByCnt stably sorts one cell's vertices ascending by the flat count
// pair (cntOut[v], cntIn[v]). Small cells use binary-free insertion sort;
// larger cells a bottom-up merge sort over st.sortTmp, so splitting a cell
// of c vertices costs O(c log c) with no allocation and no per-comparison
// indirection.
func (st *canonState) sortCellByCnt(a []int) {
	cntOut, cntIn := st.cntOut, st.cntIn
	less := func(x, y int) bool {
		if cntOut[x] != cntOut[y] {
			return cntOut[x] < cntOut[y]
		}
		return cntIn[x] < cntIn[y]
	}
	if len(a) <= 24 {
		for i := 1; i < len(a); i++ {
			x := a[i]
			j := i - 1
			for j >= 0 && less(x, a[j]) {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = x
		}
		return
	}
	tmp := st.sortTmp[:len(a)]
	// Bottom-up merge: runs double each round; ties take the left element,
	// preserving the pre-sort (previous-partition) order that the refinement
	// equivalence proof depends on.
	src, dst := a, tmp
	for width := 1; width < len(a); width <<= 1 {
		for lo := 0; lo < len(a); lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > len(a) {
				mid = len(a)
			}
			if hi > len(a) {
				hi = len(a)
			}
			i, j := lo, mid
			for k := lo; k < hi; k++ {
				if i < mid && (j >= hi || !less(src[j], src[i])) {
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
