package linalg

import (
	"math/rand"
	"testing"
)

func TestGatherScatterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := 9
	s := randomDense(rng, k, k)
	idx := []int{1, 3, 4, 8}
	n := len(idx)

	sub := NewDense(n, n)
	GatherSym(sub, s, idx)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if got, want := sub.At(a, b), s.At(idx[a], idx[b]); got != want {
				t.Fatalf("gather[%d,%d] = %v, want %v", a, b, want, got)
			}
		}
	}

	// Scatter into a zeroed matrix: the idx×idx cross holds the block
	// bit-for-bit, every other entry stays exactly zero.
	dst := NewDense(k, k)
	ScatterSym(dst, sub, idx)
	inIdx := make(map[int]bool, n)
	for _, v := range idx {
		inIdx[v] = true
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if inIdx[i] && inIdx[j] {
				if dst.At(i, j) != s.At(i, j) {
					t.Fatalf("scatter[%d,%d] = %v, want %v", i, j, dst.At(i, j), s.At(i, j))
				}
			} else if dst.At(i, j) != 0 {
				t.Fatalf("scatter touched off-block entry (%d,%d) = %v", i, j, dst.At(i, j))
			}
		}
	}
}

func TestScatterDisjointBlocksAssembleBlockDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	k := 8
	blocks := [][]int{{0, 2, 5}, {1, 7}, {3, 4, 6}}
	dst := NewDense(k, k)
	subs := make([]*Dense, len(blocks))
	for c, idx := range blocks {
		subs[c] = randomDense(rng, len(idx), len(idx))
		ScatterSym(dst, subs[c], idx)
	}
	comp := make([]int, k)
	for c, idx := range blocks {
		for _, v := range idx {
			comp[v] = c
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if comp[i] != comp[j] && dst.At(i, j) != 0 {
				t.Fatalf("cross-block entry (%d,%d) = %v, want exact 0", i, j, dst.At(i, j))
			}
		}
	}
}

func TestGatherScatterPanicOnShapeMismatch(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic on shape mismatch", name)
			}
		}()
		f()
	}
	s := NewDense(4, 4)
	mustPanic("GatherSym", func() { GatherSym(NewDense(3, 3), s, []int{0, 1}) })
	mustPanic("ScatterSym", func() { ScatterSym(s, NewDense(3, 3), []int{0, 1}) })
}

// TestGatherScatterZeroAlloc is the runtime half of the zero-allocation
// contract the gather/scatter kernels advertise in their doc
// comments.
func TestGatherScatterZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := randomDense(rng, 32, 32)
	idx := []int{2, 5, 11, 17, 23, 29}
	sub := NewDense(len(idx), len(idx))
	dst := NewDense(32, 32)
	kernels := []struct {
		name string
		f    func()
	}{
		{"GatherSym", func() { GatherSym(sub, s, idx) }},
		{"ScatterSym", func() { ScatterSym(dst, sub, idx) }},
	}
	for _, k := range kernels {
		if allocs := testing.AllocsPerRun(20, k.f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", k.name, allocs)
		}
	}
}
