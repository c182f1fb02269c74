package glasso

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fdx/internal/faults"
	"fdx/internal/fdxerr"
	"fdx/internal/linalg"
)

// chainBlockCov builds a symmetric positive definite matrix with planted
// block structure: within each block, unit diagonal and a 0.4 chain
// (tridiagonal) keeping the block connected at any λ < 0.4; cross-block
// entries are a constant 0.01 — real nonzero noise that screens out at
// any λ > 0.01.
func chainBlockCov(sizes []int) *linalg.Dense {
	k := 0
	for _, n := range sizes {
		k += n
	}
	s := linalg.NewDense(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i != j {
				s.Set(i, j, 0.01)
			}
		}
		s.Set(i, i, 1)
	}
	off := 0
	for _, n := range sizes {
		for i := 0; i < n-1; i++ {
			s.Set(off+i, off+i+1, 0.4)
			s.Set(off+i+1, off+i, 0.4)
		}
		off += n
	}
	return s
}

const screenLambda = 0.1

func TestSolveBlocksFindsPlantedBlocks(t *testing.T) {
	sizes := []int{4, 1, 5, 3}
	br, err := SolveBlocks(chainBlockCov(sizes), Options{Lambda: screenLambda})
	if err != nil {
		t.Fatal(err)
	}
	if br.Part.NumBlocks() != len(sizes) {
		t.Fatalf("NumBlocks = %d, want %d", br.Part.NumBlocks(), len(sizes))
	}
	off := 0
	for c, n := range sizes {
		blk := br.Part.Block(c)
		if len(blk) != n || blk[0] != off {
			t.Fatalf("block %d = %v, want %d vertices from %d", c, blk, n, off)
		}
		off += n
	}
	if !br.Converged() {
		t.Error("healthy blocked solve not converged")
	}
}

// TestSolveBlocksEqualsIndependentSolves pins the decomposition contract:
// each screened block's solution is bit-identical to solving that block's
// gathered submatrix as its own standalone glasso problem.
func TestSolveBlocksEqualsIndependentSolves(t *testing.T) {
	s := chainBlockCov([]int{6, 4, 7})
	opts := Options{Lambda: screenLambda}
	br, err := SolveBlocks(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < br.Part.NumBlocks(); c++ {
		idx := br.Part.Block(c)
		sub := linalg.NewDense(len(idx), len(idx))
		linalg.GatherSym(sub, s, idx)
		ind, err := Solve(sub, opts)
		if err != nil {
			t.Fatalf("independent solve of block %d: %v", c, err)
		}
		assertBitIdentical(t, "precision", ind.Precision, br.Blocks[c].Precision)
		assertBitIdentical(t, "covariance", ind.Covariance, br.Blocks[c].Covariance)
	}
}

// TestSolveBlocksBitIdenticalAcrossWorkers extends the determinism
// contract to the screened path: blocks are independent problems over
// disjoint state, so W and Θ are bit-for-bit equal at any worker count.
func TestSolveBlocksBitIdenticalAcrossWorkers(t *testing.T) {
	s := chainBlockCov([]int{9, 1, 6, 5, 2})
	var ref *Result
	for _, workers := range []int{1, 4, 8} {
		br, err := SolveBlocks(s, Options{Lambda: screenLambda, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		res := br.Dense()
		if ref == nil {
			ref = res
			continue
		}
		assertBitIdentical(t, "precision", ref.Precision, res.Precision)
		assertBitIdentical(t, "covariance", ref.Covariance, res.Covariance)
		if res.Iterations != ref.Iterations || res.Converged != ref.Converged {
			t.Fatalf("workers=%d: iterations/converged drifted", workers)
		}
	}
}

// TestSingleComponentMatchesNoScreen pins the screened path to the
// historical dense solver: when screening finds one giant component, the
// block is solved directly on the original backing (no gather), so the
// result is bit-identical to the NoScreen reference.
func TestSingleComponentMatchesNoScreen(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := spdCovariance(rng, 24)
	opts := Options{Lambda: 0.01} // small λ: one giant component
	screened, err := SolveBlocks(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if screened.Part.NumBlocks() != 1 {
		t.Fatalf("expected one component, got %d", screened.Part.NumBlocks())
	}
	noScreen := opts
	noScreen.NoScreen = true
	dense, err := SolveBlocks(s, noScreen)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "precision", dense.Dense().Precision, screened.Dense().Precision)
	assertBitIdentical(t, "covariance", dense.Dense().Covariance, screened.Dense().Covariance)
}

// TestMultiComponentAgreesWithNoScreenWithinTolerance checks the
// screening theorem numerically: on a disconnectable matrix the screened
// and dense solutions agree to solver tolerance, and the screened
// assembly has exact zeros across blocks where the dense solve only has
// small values.
func TestMultiComponentAgreesWithNoScreenWithinTolerance(t *testing.T) {
	s := chainBlockCov([]int{5, 4, 3})
	opts := Options{Lambda: screenLambda}
	screened, err := SolveBlocks(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if screened.Part.NumBlocks() != 3 {
		t.Fatalf("expected 3 components, got %d", screened.Part.NumBlocks())
	}
	noScreen := opts
	noScreen.NoScreen = true
	dense, err := SolveBlocks(s, noScreen)
	if err != nil {
		t.Fatal(err)
	}
	theta := screened.DensePrecision()
	thetaDense := dense.Dense().Precision
	k, _ := s.Dims()
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if screened.Part.Comp(i) != screened.Part.Comp(j) {
				if theta.At(i, j) != 0 {
					t.Fatalf("screened Θ[%d,%d] = %v, want exact 0 across blocks", i, j, theta.At(i, j))
				}
				continue
			}
			if d := math.Abs(theta.At(i, j) - thetaDense.At(i, j)); d > 1e-3 {
				t.Fatalf("Θ[%d,%d]: screened %v vs dense %v (|Δ|=%g)", i, j, theta.At(i, j), thetaDense.At(i, j), d)
			}
		}
	}
}

// TestBlockedConvergenceAggregation arms forced non-convergence and
// checks worst-case-wins aggregation: the one multi-variable block gets
// stuck while the singleton blocks (closed form, never iterating) stay
// converged, and the aggregate reports the failure with the losing block
// identifiable in Diagnostics.
func TestFaultBlockedConvergenceAggregation(t *testing.T) {
	defer faults.Reset()
	faults.Arm(faults.GlassoNoConverge, faults.Config{})
	// One 3-variable block plus two singletons: only the real block runs
	// sweeps, so the armed fault pins exactly that block.
	s := chainBlockCov([]int{3, 1, 1})
	opts := Options{Lambda: screenLambda, Workers: 1, MaxIter: 7}
	br, err := SolveBlocks(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if br.Converged() {
		t.Fatal("worst-case aggregation: one stuck block must mark the solve non-converged")
	}
	if br.Iterations() != 7 {
		t.Fatalf("Iterations() = %d, want the stuck block's full budget 7", br.Iterations())
	}
	diags := br.Diagnostics()
	if len(diags) != 3 {
		t.Fatalf("Diagnostics: %d blocks, want 3", len(diags))
	}
	for c, d := range diags {
		wantConverged := len(d.Vertices) == 1
		if d.Converged != wantConverged {
			t.Errorf("block %d (%d vars): Converged = %t, want %t", c, len(d.Vertices), d.Converged, wantConverged)
		}
	}
	res := br.Dense()
	if res.Converged || len(res.Diagnostics) != 3 {
		t.Fatalf("Dense(): Converged=%t Diagnostics=%d, want false/3", res.Converged, len(res.Diagnostics))
	}
}

// TestSolveBlocksErrorNamesBlock checks deterministic error selection:
// a failing block surfaces typed, wrapped with its block index.
func TestSolveBlocksErrorNamesBlock(t *testing.T) {
	// Vertices {0,1} form a healthy pair; vertex 2 is a singleton with
	// negative variance, unsolvable in closed form.
	s := linalg.NewDenseData(3, 3, []float64{
		1, 0.5, 0,
		0.5, 1, 0,
		0, 0, -1,
	})
	_, err := SolveBlocks(s, Options{Lambda: 0.1})
	if !errors.Is(err, fdxerr.ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", err)
	}
	if !strings.Contains(err.Error(), "screened block 1") {
		t.Fatalf("err = %q, want the failing block named", err)
	}
}

func TestBlockedResultDenseEmpty(t *testing.T) {
	br, err := SolveBlocks(linalg.NewDense(0, 0), Options{Lambda: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	res := br.Dense()
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("empty solve: Converged=%t Iterations=%d", res.Converged, res.Iterations)
	}
}
