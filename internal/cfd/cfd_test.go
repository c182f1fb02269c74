package cfd

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"fdx/internal/core"
	"fdx/internal/dataset"
)

func relFromRows(rows [][]string, names ...string) *dataset.Relation {
	r := dataset.New("t", names...)
	for _, row := range rows {
		r.AppendRow(row)
	}
	return r
}

func TestBuildCleanFD(t *testing.T) {
	rel := relFromRows([][]string{
		{"60611", "chicago"}, {"60611", "chicago"},
		{"53703", "madison"}, {"53703", "madison"},
	}, "zip", "city")
	tab := Build(rel, core.FD{LHS: []int{0}, RHS: 1}, Options{})
	if tab.GlobalConfidence != 1 {
		t.Errorf("clean FD global confidence = %v", tab.GlobalConfidence)
	}
	if len(tab.Patterns) != 2 {
		t.Errorf("patterns = %v", tab.Patterns)
	}
	for _, p := range tab.Patterns {
		if p.Confidence != 1 {
			t.Errorf("clean FD has a dirty pattern %+v", p)
		}
	}
	if tab.Patterns[0].Support != 2 || tab.Patterns[0].Confidence != 1 {
		t.Errorf("pattern = %+v", tab.Patterns[0])
	}
}

func TestBuildSplitsCleanAndDirty(t *testing.T) {
	rel := relFromRows([][]string{
		{"a", "x"}, {"a", "x"}, {"a", "x"},
		{"b", "y"}, {"b", "z"}, {"b", "y"}, // dirty subdomain
	}, "k", "v")
	tab := Build(rel, core.FD{LHS: []int{0}, RHS: 1}, Options{})
	// Equal support, so the patterns order by LHS value: clean "a", dirty "b".
	if len(tab.Patterns) != 2 {
		t.Fatalf("patterns = %v", tab.Patterns)
	}
	clean, dirty := tab.Patterns[0], tab.Patterns[1]
	if clean.LHSValues[0] != "a" || clean.Confidence != 1 {
		t.Errorf("clean pattern = %+v", clean)
	}
	if dirty.LHSValues[0] != "b" || dirty.Confidence != 2.0/3 || dirty.RHSValue != "y" {
		t.Errorf("dirty pattern = %+v", dirty)
	}
	want := (3.0*1 + 3.0*(2.0/3)) / 6.0
	if diff := tab.GlobalConfidence - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("global confidence = %v, want %v", tab.GlobalConfidence, want)
	}
}

func TestBuildCompositeLHSAndMissing(t *testing.T) {
	rel := relFromRows([][]string{
		{"a", "1", "p"}, {"a", "1", "p"},
		{"a", "", "q"}, // missing LHS cell: excluded
		{"b", "2", ""}, {"b", "2", "r"},
	}, "x", "y", "z")
	tab := Build(rel, core.FD{LHS: []int{0, 1}, RHS: 2}, Options{})
	if len(tab.Patterns) != 2 {
		t.Fatalf("patterns = %v", tab.Patterns)
	}
	// (b,2): 2 tuples, one missing RHS → dominant r with confidence 1/2.
	for _, p := range tab.Patterns {
		if p.LHSValues[0] == "b" && (p.RHSValue != "r" || p.Confidence != 0.5) {
			t.Errorf("pattern with missing RHS = %+v", p)
		}
	}
}

func TestBuildSupportAndConfidenceFilters(t *testing.T) {
	rel := relFromRows([][]string{
		{"solo", "x"},
		{"a", "x"}, {"a", "y"},
	}, "k", "v")
	tab := Build(rel, core.FD{LHS: []int{0}, RHS: 1}, Options{MinSupport: 2})
	if len(tab.Patterns) != 1 || tab.Patterns[0].LHSValues[0] != "a" {
		t.Errorf("singleton pattern kept: %v", tab.Patterns)
	}
	strict := Build(rel, core.FD{LHS: []int{0}, RHS: 1}, Options{MinSupport: 2, MinConfidence: 0.9})
	if len(strict.Patterns) != 0 {
		t.Errorf("low-confidence pattern kept: %v", strict.Patterns)
	}
}

func TestBuildMaxPatterns(t *testing.T) {
	var rows [][]string
	for i := 0; i < 100; i++ {
		k := strconv.Itoa(i)
		rows = append(rows, []string{k, "v"}, []string{k, "v"})
	}
	rel := relFromRows(rows, "k", "v")
	tab := Build(rel, core.FD{LHS: []int{0}, RHS: 1}, Options{MaxPatterns: 10})
	if len(tab.Patterns) != 10 {
		t.Errorf("MaxPatterns ignored: %d", len(tab.Patterns))
	}
}

func TestFormatRendering(t *testing.T) {
	rel := relFromRows([][]string{{"a", "x"}, {"a", "x"}}, "k", "v")
	tab := Build(rel, core.FD{LHS: []int{0}, RHS: 1}, Options{})
	out := tab.Format([]string{"k", "v"})
	if !strings.Contains(out, "k=a") || !strings.Contains(out, "v=x") {
		t.Errorf("Format = %q", out)
	}
}

func TestBuildNoisyRandomProperty(t *testing.T) {
	// Global confidence must equal 1 − (fraction of violating tuples).
	rng := rand.New(rand.NewSource(1))
	var rows [][]string
	for i := 0; i < 500; i++ {
		k := strconv.Itoa(rng.Intn(10))
		v := "v" + k
		if rng.Float64() < 0.1 {
			v = "junk"
		}
		rows = append(rows, []string{k, v})
	}
	rel := relFromRows(rows, "k", "v")
	tab := Build(rel, core.FD{LHS: []int{0}, RHS: 1}, Options{})
	if tab.GlobalConfidence < 0.8 || tab.GlobalConfidence > 0.99 {
		t.Errorf("global confidence = %v, want ≈0.9", tab.GlobalConfidence)
	}
}
