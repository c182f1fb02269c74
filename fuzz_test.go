package fdx_test

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"fdx"
	"fdx/internal/core"
)

// discoverSeeds are the CSV seeds of FuzzDiscover and FuzzDiscoverOptions.
var discoverSeeds = []string{
	"a,b\n1,2\n3,4\n",
	"a,b,c\n1,2,3\n1,2,4\n1,2,5\n2,9,3\n",
	"x\nv\nv\nv\n",
	"a,a\n1,2\n3,4\n",                // duplicate header
	"a,b\n,\n,\n,\n",                 // all NULLs
	"a,b\n1\n1,2,3\n",                // ragged rows
	"n,m\n1.5,2e3\nNaN,Inf\n-0,+0\n", // numeric parsing edge cases
	"a,b\n\"x,y\",z\n\"q\"\"q\",w\n", // quoting
	"",
	"\xff\xfe,b\n1,2\n",
}

// FuzzDiscover feeds arbitrary CSV text through the full pipeline. The
// invariant under test is the package contract: Discover never panics — it
// either returns a valid Result or an error matching the taxonomy in
// errors.go. Run longer campaigns with:
//
//	go test -run '^$' -fuzz '^FuzzDiscover$' -fuzztime 30s .
func FuzzDiscover(f *testing.F) {
	for _, data := range discoverSeeds {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data string) {
		// Cap the work per input so the campaign explores inputs rather than
		// grinding large pipelines: the pipeline itself is O(k²·n) and is
		// size-tested elsewhere.
		if len(data) > 4096 {
			t.Skip("oversized input")
		}
		rel, err := fdx.ReadCSV("fuzz", strings.NewReader(data))
		if err != nil {
			return // malformed CSV is the reader's concern, not Discover's
		}
		if rel.NumCols() > 8 || rel.NumRows() > 64 {
			t.Skip("oversized relation")
		}
		res, err := fdx.Discover(rel, fdx.Options{})
		if err != nil {
			if !errors.Is(err, fdx.ErrBadInput) &&
				!errors.Is(err, fdx.ErrSingularCovariance) &&
				!errors.Is(err, fdx.ErrNonPositivePivot) &&
				!errors.Is(err, fdx.ErrNotConverged) &&
				!errors.Is(err, fdx.ErrInternal) {
				t.Fatalf("error outside the taxonomy: %v", err)
			}
			return
		}
		if res == nil {
			t.Fatal("nil result with nil error")
		}
		k := rel.NumCols()
		if len(res.B) != k {
			t.Fatalf("B has %d rows, want %d", len(res.B), k)
		}
		attrs := make(map[string]bool, k)
		for _, n := range rel.AttrNames() {
			attrs[n] = true
		}
		for _, fd := range res.FDs {
			if len(fd.LHS) == 0 || !attrs[fd.RHS] {
				t.Fatalf("malformed FD %+v", fd)
			}
			for _, l := range fd.LHS {
				if !attrs[l] {
					t.Fatalf("FD %v references unknown attribute %q", fd, l)
				}
			}
		}
	})
}

// FuzzDiscoverOptions fuzzes the options that Options.Validate checks
// together with the CSV. Two properties hold for every input:
//
//   - an option set outside the documented ranges returns ErrBadInput
//     before any stage, so the attached tracer records no span;
//   - an option set inside them never returns ErrBadInput on a relation
//     that core.ValidateRelation accepts.
//
// The ranges are restated here from the Options field comments rather
// than read from the code under test. Run longer campaigns with:
//
//	go test -run '^$' -fuzz '^FuzzDiscoverOptions$' -fuzztime 30s .
func FuzzDiscoverOptions(f *testing.F) {
	for _, data := range discoverSeeds {
		f.Add(data, 0.0, 0.0, 0.0, "", 0, 0.0)
	}
	asia := "smoke,lung,bronc\nyes,no,yes\nno,no,no\nyes,yes,yes\nno,no,yes\nyes,no,no\n"
	for _, lambda := range []float64{-3, -0.001, math.NaN(), 0.01} {
		f.Add(asia, lambda, 0.0, 0.0, "", 0, 0.0)
	}
	f.Add(asia, 0.0, 0.0, 7.0, "", 0, 0.0)
	f.Add(asia, 0.0, 0.0, 0.0, "", -5, 0.0)
	f.Add("a,b\n1,2\n3,4\n", 0.0, 0.0, 0.0, "bogus", 0, 0.0)
	f.Add(asia, 0.0, -1.0, -1.0, "random", 3, 0.1)

	orderings := []string{"", "heuristic", "natural", "amd", "colamd", "metis", "nesdis", "reverse", "random"}
	f.Fuzz(func(t *testing.T, data string, lambda, threshold, relFraction float64, ordering string, maxRows int, numericTol float64) {
		if len(data) > 4096 {
			t.Skip("oversized input")
		}
		rel, err := fdx.ReadCSV("fuzz", strings.NewReader(data))
		if err != nil {
			return
		}
		if rel.NumCols() > 8 || rel.NumRows() > 64 {
			t.Skip("oversized relation")
		}
		valid := lambda >= 0 && !math.IsInf(lambda, 1) &&
			!math.IsNaN(threshold) && !math.IsInf(threshold, 0) &&
			relFraction <= 1 &&
			slices.Contains(orderings, ordering) &&
			maxRows >= 0 &&
			numericTol >= 0 && !math.IsInf(numericTol, 1)
		tr := fdx.NewTracer()
		_, err = fdx.Discover(rel, fdx.Options{
			Lambda: lambda, Threshold: threshold, RelFraction: relFraction,
			Ordering: ordering, MaxRows: maxRows, NumericTolerance: numericTol,
			Tracer: tr,
		})
		switch {
		case !valid:
			if !errors.Is(err, fdx.ErrBadInput) {
				t.Fatalf("invalid options accepted: err = %v", err)
			}
			if n := len(tr.Spans()); n != 0 {
				t.Fatalf("invalid options opened %d spans", n)
			}
		case errors.Is(err, fdx.ErrBadInput) && core.ValidateRelation(rel) == nil:
			t.Fatalf("valid options on a valid relation: %v", err)
		}
	})
}
