package rfi

import (
	"math/rand"
	"strconv"
	"testing"

	"fdx/internal/core"
	"fdx/internal/dataset"
)

func relFromCodes(rows [][]int, names ...string) *dataset.Relation {
	r := dataset.New("t", names...)
	for _, row := range rows {
		s := make([]string, len(row))
		for j, v := range row {
			if v < 0 {
				s[j] = ""
			} else {
				s[j] = strconv.Itoa(v)
			}
		}
		r.AppendRow(s)
	}
	return r
}

func findFD(fds []core.FD, rhs int) *core.FD {
	for i := range fds {
		if fds[i].RHS == rhs {
			return &fds[i]
		}
	}
	return nil
}

func TestRFIFindsTrueFD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]int, 400)
	for i := range rows {
		a := rng.Intn(6)
		rows[i] = []int{a, a % 3, rng.Intn(4)}
	}
	rel := relFromCodes(rows, "a", "b", "c")
	fds := Discover(rel, Options{})
	fd := findFD(fds, 1)
	if fd == nil || len(fd.LHS) != 1 || fd.LHS[0] != 0 {
		t.Fatalf("b's best determinant should be a: %v", fds)
	}
	if fd.Score < 0.8 {
		t.Errorf("score of true FD = %v, want near 1", fd.Score)
	}
}

func TestRFIIgnoresIndependentAttributes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows := make([][]int, 500)
	for i := range rows {
		rows[i] = []int{rng.Intn(4), rng.Intn(4), rng.Intn(4)}
	}
	rel := relFromCodes(rows, "a", "b", "c")
	fds := Discover(rel, Options{})
	if len(fds) != 0 {
		t.Errorf("independent data produced FDs: %v", fds)
	}
}

func TestRFIFindsCompositeFD(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := make([][]int, 4)
	for i := range tab {
		tab[i] = make([]int, 4)
		for j := range tab[i] {
			tab[i][j] = rng.Intn(20)
		}
	}
	rows := make([][]int, 800)
	for i := range rows {
		a, b := rng.Intn(4), rng.Intn(4)
		rows[i] = []int{a, b, tab[a][b]}
	}
	rel := relFromCodes(rows, "a", "b", "c")
	fds := Discover(rel, Options{})
	fd := findFD(fds, 2)
	if fd == nil || len(fd.LHS) != 2 {
		t.Fatalf("composite determinant not found: %v", fds)
	}
}

func TestRFIPenalizesSpuriousWideLHS(t *testing.T) {
	// Small sample, large domains: empirical FI would pick a wide LHS;
	// the bias correction must keep the spurious determinant score low.
	rng := rand.New(rand.NewSource(4))
	rows := make([][]int, 40)
	for i := range rows {
		rows[i] = []int{rng.Intn(20), rng.Intn(20), rng.Intn(2)}
	}
	rel := relFromCodes(rows, "a", "b", "y")
	fds := Discover(rel, Options{MinScore: 0.3})
	if fd := findFD(fds, 2); fd != nil {
		t.Errorf("spurious determinant scored %v: %v", fd.Score, fd)
	}
}

func TestRFIAlphaApproximationStillFindsStrongFDs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := make([][]int, 300)
	for i := range rows {
		a := rng.Intn(5)
		rows[i] = []int{a, a, rng.Intn(3)}
	}
	rel := relFromCodes(rows, "a", "b", "c")
	for _, alpha := range []float64{0.3, 0.5, 1.0} {
		fds := Discover(rel, Options{Alpha: alpha})
		if fd := findFD(fds, 1); fd == nil {
			t.Errorf("alpha %v: exact duplicate column FD lost: %v", alpha, fds)
		}
	}
}

func TestRFITopOnePerAttribute(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rows := make([][]int, 300)
	for i := range rows {
		a := rng.Intn(6)
		rows[i] = []int{a, a % 3, a % 2}
	}
	rel := relFromCodes(rows, "a", "b", "c")
	fds := Discover(rel, Options{})
	seen := map[int]int{}
	for _, fd := range fds {
		seen[fd.RHS]++
	}
	for rhs, count := range seen {
		if count > 1 {
			t.Errorf("attribute %d has %d FDs, want ≤1", rhs, count)
		}
	}
}

func TestRFIRankedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := make([][]int, 300)
	for i := range rows {
		a := rng.Intn(6)
		b := a % 3
		c := b
		if rng.Float64() < 0.3 {
			c = rng.Intn(3)
		}
		rows[i] = []int{a, b, c}
	}
	rel := relFromCodes(rows, "a", "b", "c")
	fds := RankedFDs(rel, Options{})
	for i := 1; i < len(fds); i++ {
		if fds[i-1].Score < fds[i].Score {
			t.Errorf("ranking out of order: %v", fds)
		}
	}
}

func TestRFIDegenerate(t *testing.T) {
	if fds := Discover(dataset.New("t"), Options{}); fds != nil {
		t.Error("empty relation")
	}
	rel := relFromCodes([][]int{{0, 0}, {-1, 1}}, "a", "b")
	// NULLs present: must not panic, missing treated as a value.
	_ = Discover(rel, Options{})
}
