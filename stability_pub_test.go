package fdx_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"fdx"
	"fdx/internal/faults"
)

func TestDiscoverStable(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rel := fdx.NewRelation("t", "sku", "cat", "noise")
	for i := 0; i < 900; i++ {
		sku := rng.Intn(20)
		rel.AppendRow([]string{
			fmt.Sprintf("s%d", sku),
			fmt.Sprintf("c%d", sku%4),
			fmt.Sprintf("n%d", rng.Intn(10)),
		})
	}
	tr := fdx.NewTracer()
	fds, freqs, err := fdx.DiscoverStable(rel, fdx.Options{Seed: 13, Tracer: tr}, fdx.StabilityOptions{Runs: 6, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Find("discover")); n != 6 {
		t.Errorf("tracer recorded %d discover spans, want one per run (6)", n)
	}
	found := false
	for _, fd := range fds {
		if fd.RHS == "cat" {
			found = true
		}
	}
	if !found {
		t.Errorf("stable sku->cat lost: %v", fds)
	}
	if len(freqs) == 0 {
		t.Fatal("no frequency table")
	}
	if freqs[0].Frequency < 0.9 {
		t.Errorf("top edge frequency %v, want near 1", freqs[0].Frequency)
	}
	for _, fd := range fds {
		if fd.RHS == "noise" {
			t.Errorf("noise attribute in stable FDs: %v", fd)
		}
	}
}

// TestFaultDiscoverStableRequireConvergence checks that DiscoverStable
// honours RequireConvergence: a Graphical Lasso forced never to converge
// fails the call instead of yielding degraded runs.
func TestFaultDiscoverStableRequireConvergence(t *testing.T) {
	defer faults.Reset()
	faults.Arm(faults.GlassoNoConverge, faults.Config{})
	rel := fdx.NewRelation("t", "a", "b")
	for i := 0; i < 60; i++ {
		rel.AppendRow([]string{fmt.Sprint(i % 5), fmt.Sprint(i % 5 * 2)})
	}
	_, _, err := fdx.DiscoverStable(rel, fdx.Options{RequireConvergence: true}, fdx.StabilityOptions{Runs: 2})
	if !errors.Is(err, fdx.ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
}

// TestDiscoverStableNilRelation checks that DiscoverStable validates its
// input as Discover does.
func TestDiscoverStableNilRelation(t *testing.T) {
	if _, _, err := fdx.DiscoverStable(nil, fdx.Options{}, fdx.StabilityOptions{Runs: 2}); !errors.Is(err, fdx.ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", err)
	}
}

// TestFaultDiscoverStablePanicGuard checks that an internal panic inside a
// resampled run comes back as an ErrInternal-wrapped error, not a panic.
func TestFaultDiscoverStablePanicGuard(t *testing.T) {
	defer faults.Reset()
	faults.Arm(faults.InternalPanic, faults.Config{})
	rel := fdx.NewRelation("t", "a", "b")
	for i := 0; i < 60; i++ {
		rel.AppendRow([]string{fmt.Sprint(i % 5), fmt.Sprint(i % 5 * 2)})
	}
	if _, _, err := fdx.DiscoverStable(rel, fdx.Options{}, fdx.StabilityOptions{Runs: 2}); !errors.Is(err, fdx.ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
}
