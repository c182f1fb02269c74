package profile

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"fdx"
	"fdx/internal/dataset"
)

func buildRel(rng *rand.Rand, n int) *dataset.Relation {
	rel := dataset.New("orders", "id", "sku", "category")
	for i := 0; i < n; i++ {
		sku := rng.Intn(12)
		cat := strconv.Itoa(sku % 3)
		catVal := "c" + cat
		if rng.Float64() < 0.02 {
			catVal = "" // missing
		}
		rel.AppendRow([]string{strconv.Itoa(i), "s" + strconv.Itoa(sku), catVal})
	}
	return rel
}

func TestBuildReport(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rel := buildRel(rng, 600)
	rep, err := Build(rel, Options{Discovery: fdx.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 600 || len(rep.Columns) != 3 {
		t.Fatalf("report shape: %d rows %d cols", rep.Rows, len(rep.Columns))
	}
	// id must surface as a key.
	foundIDKey := false
	for _, k := range rep.Keys {
		if len(k.Attrs) == 1 && k.Attrs[0] == 0 {
			foundIDKey = true
		}
	}
	if !foundIDKey {
		t.Errorf("id key not found: %v", rep.Keys)
	}
	// sku→category should be in the FDs, and both columns marked InFD.
	if len(rep.FDs) == 0 {
		t.Fatal("no FDs in report")
	}
	if !rep.Columns[1].InFD || !rep.Columns[2].InFD {
		t.Error("FD participation flags wrong")
	}
	if rep.Columns[0].InFD {
		t.Error("key column flagged as FD participant")
	}
	if rep.Columns[2].MissingRate == 0 {
		t.Error("missing rate not computed")
	}
	if rep.ErrorRate <= 0 {
		t.Error("error rate should be positive with injected missing cells")
	}
	out := rep.String()
	for _, want := range []string{"profile of orders", "sku", "approximate keys", "foreign-key candidates", "FD violation row rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q", want)
		}
	}
}

func TestBuildEmptyFDReport(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rel := dataset.New("noise", "a", "b")
	for i := 0; i < 200; i++ {
		rel.AppendRow([]string{strconv.Itoa(rng.Intn(8)), strconv.Itoa(rng.Intn(8))})
	}
	rep, err := Build(rel, Options{Discovery: fdx.Options{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.FDs) != 0 {
		t.Errorf("independent data produced FDs: %v", rep.FDs)
	}
	if !strings.Contains(rep.String(), "(none)") {
		t.Error("empty-FD rendering missing")
	}
}
