package synth

import (
	"testing"
	"testing/quick"

	"fdx/internal/metrics"
	"fdx/internal/tane"
)

func TestGenerateShape(t *testing.T) {
	inst := Generate(Config{Tuples: 500, Attributes: 10, DomainCardinality: 64, Seed: 1})
	rel := inst.Relation
	if rel.NumRows() != 500 || rel.NumCols() != 10 {
		t.Fatalf("dims %dx%d", rel.NumRows(), rel.NumCols())
	}
	if err := rel.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(inst.TrueFDs) == 0 {
		t.Error("no FDs planted")
	}
	if len(inst.Correlated) == 0 {
		t.Error("no correlated groups planted")
	}
}

func TestGeneratedFDsHoldOnCleanData(t *testing.T) {
	inst := Generate(Config{Tuples: 800, Attributes: 10, DomainCardinality: 64, NoiseRate: 0, Seed: 2})
	// TANE at zero error must rediscover every planted edge (possibly with
	// smaller minimal LHS, so compare recall over edges undirected).
	found := tane.Discover(inst.Relation, tane.Options{MaxLHS: 3})
	m := metrics.Evaluate(inst.TrueFDs, found, true)
	if m.Recall < 0.99 {
		t.Errorf("TANE recall on clean synthetic data = %v; truth %v, found %v",
			m.Recall, inst.TrueFDs, found)
	}
}

func TestNoiseBreaksExactFDs(t *testing.T) {
	clean := Generate(Config{Tuples: 800, Attributes: 8, DomainCardinality: 64, NoiseRate: 0, Seed: 3})
	noisy := Generate(Config{Tuples: 800, Attributes: 8, DomainCardinality: 64, NoiseRate: 0.3, Seed: 3})
	cleanFound := tane.Discover(clean.Relation, tane.Options{MaxLHS: 2})
	noisyFound := tane.Discover(noisy.Relation, tane.Options{MaxLHS: 2})
	cleanRecall := metrics.Evaluate(clean.TrueFDs, cleanFound, true).Recall
	noisyRecall := metrics.Evaluate(noisy.TrueFDs, noisyFound, true).Recall
	if noisyRecall >= cleanRecall {
		t.Errorf("30%% noise did not reduce exact-FD recall: clean %v noisy %v", cleanRecall, noisyRecall)
	}
}

func TestCorrelatedGroupsAreNotFDs(t *testing.T) {
	inst := Generate(Config{Tuples: 2000, Attributes: 12, DomainCardinality: 64, NoiseRate: 0, Seed: 4})
	found := tane.Discover(inst.Relation, tane.Options{MaxLHS: 3})
	fset := metrics.EdgeSet(found)
	// Correlated (ρ<0.85) groups must not hold exactly.
	for _, corr := range inst.Correlated {
		for _, e := range corr.Edges() {
			if fset[e] {
				t.Errorf("correlated edge %v discovered as exact FD", e)
			}
		}
	}
}

func TestSettingConfigs(t *testing.T) {
	small := Setting{}.Config(1)
	large := Setting{TLarge: true, RLarge: true, DLarge: true, NHigh: true}.Config(1)
	if small.Tuples >= large.Tuples || small.Attributes >= large.Attributes {
		t.Error("setting scales not ordered")
	}
	if small.NoiseRate >= large.NoiseRate {
		t.Error("noise rates not ordered")
	}
	if got := (Setting{TLarge: true, NHigh: true}).Name(); got != "t=large r=small d=small n=high" {
		t.Errorf("Name = %q", got)
	}
}

func TestAllSettingsCount(t *testing.T) {
	if len(Figure2Settings()) != 8 {
		t.Errorf("Figure2Settings = %d, want 8", len(Figure2Settings()))
	}
}

func TestIntRoot(t *testing.T) {
	cases := []struct{ d, k, want int }{
		{64, 1, 64}, {64, 2, 8}, {64, 3, 4}, {1331, 3, 11}, {100, 2, 10}, {101, 2, 11},
	}
	for _, c := range cases {
		if got := intRoot(c.d, c.k); got != c.want {
			t.Errorf("intRoot(%d,%d) = %d, want %d", c.d, c.k, got, c.want)
		}
	}
}

func TestGenerateDeterministicBySeed(t *testing.T) {
	for _, noise := range []float64{0, 0.01} {
		f := func(seed int64) bool {
			cfg := Config{Tuples: 50, Attributes: 6, DomainCardinality: 27, NoiseRate: noise, Seed: seed}
			a, b := Generate(cfg), Generate(cfg)
			for i := 0; i < 50; i++ {
				ra, rb := a.Relation.Row(i), b.Relation.Row(i)
				for j := range ra {
					if ra[j] != rb[j] {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
			t.Errorf("NoiseRate %v: %v", noise, err)
		}
	}
}
