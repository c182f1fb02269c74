package core

import (
	"math/rand"
	"testing"
)

func TestStabilitySelectionKeepsTrueEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	rel := makeFDRelation(rng, 1200, 0.02)
	fds, freqs, err := StabilitySelection(rel, Options{}, StabilityOptions{Runs: 8, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	edges := edgeSet(fds)
	und := func(a, b int) bool { return edges[[2]int{a, b}] || edges[[2]int{b, a}] }
	if !und(0, 1) {
		t.Errorf("stable a—b edge lost: %v", fds)
	}
	if !und(2, 3) {
		t.Errorf("stable c—d edge lost: %v", fds)
	}
	// Frequencies sorted descending and bounded.
	for i, f := range freqs {
		if f.Frequency < 0 || f.Frequency > 1 {
			t.Fatalf("frequency out of range: %v", f)
		}
		if i > 0 && freqs[i-1].Frequency < f.Frequency {
			t.Fatal("frequencies not sorted")
		}
	}
}

func TestStabilitySelectionFiltersUnstableEdges(t *testing.T) {
	// With a very high frequency cut-off, marginal edges disappear while
	// the deterministic one (a→b) survives.
	rng := rand.New(rand.NewSource(11))
	rel := makeFDRelation(rng, 1000, 0.05)
	strict, _, err := StabilitySelection(rel, Options{}, StabilityOptions{Runs: 8, MinFrequency: 0.99, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	loose, _, err := StabilitySelection(rel, Options{}, StabilityOptions{Runs: 8, MinFrequency: 0.2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(edgeSet(strict)) > len(edgeSet(loose)) {
		t.Errorf("stricter cut-off kept more edges: %d vs %d", len(edgeSet(strict)), len(edgeSet(loose)))
	}
	edges := edgeSet(strict)
	if !edges[[2]int{0, 1}] && !edges[[2]int{1, 0}] {
		t.Errorf("deterministic edge failed 0.99 stability: %v", strict)
	}
}
