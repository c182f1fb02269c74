package linalg

// Gather/scatter kernels for block-screened solvers: a screening pass
// (internal/glasso) partitions the variables of a symmetric matrix into
// connected components, solves each component on a compact submatrix, and
// scatters the solution back into the full matrix. Both directions are
// plain index-mapped copies — no arithmetic — so a gathered block holds
// exactly the bits of the corresponding full-matrix entries.

// GatherSym fills dst with the principal submatrix of s selected by idx:
// dst[a][b] = s[idx[a]][idx[b]]. dst must be n×n for n = len(idx), and the
// indices must be in range for s (the usual caller passes one connected
// component of a screening partition, sorted ascending). s is not assumed
// symmetric — both triangles are copied as they are — so the gathered
// block preserves any asymmetry of the source bit-for-bit.
// Panics if dst is not len(idx)×len(idx).
//
// fdx:zero-alloc — verified statically by the hotalloc analyzer and at
// runtime by the AllocsPerRun gate in gather_test.go.
func GatherSym(dst *Dense, s *Dense, idx []int) {
	n := len(idx)
	if r, c := dst.Dims(); r != n || c != n {
		panic("linalg: GatherSym destination dimension disagrees with index set")
	}
	for a := 0; a < n; a++ {
		srow := s.Row(idx[a])
		drow := dst.Row(a)
		for b := 0; b < n; b++ {
			drow[b] = srow[idx[b]]
		}
	}
}

// ScatterSym writes the n×n block sub into the positions of dst selected
// by idx: dst[idx[a]][idx[b]] = sub[a][b]. Entries of dst outside the
// idx×idx cross are untouched, so a caller scattering several disjoint
// blocks into a zeroed matrix obtains the block-diagonal assembly with
// exact zeros everywhere off-block. The write set is a function of idx
// alone — disjoint index sets touch disjoint entries — which is what lets
// screened blocks scatter concurrently and still produce bit-identical
// assemblies at any worker count.
// Panics if sub is not len(idx)×len(idx).
//
// fdx:zero-alloc — verified statically by the hotalloc analyzer and at
// runtime by the AllocsPerRun gate in gather_test.go.
func ScatterSym(dst *Dense, sub *Dense, idx []int) {
	n := len(idx)
	if r, c := sub.Dims(); r != n || c != n {
		panic("linalg: ScatterSym block dimension disagrees with index set")
	}
	for a := 0; a < n; a++ {
		srow := sub.Row(a)
		drow := dst.Row(idx[a])
		for b := 0; b < n; b++ {
			drow[idx[b]] = srow[b]
		}
	}
}
