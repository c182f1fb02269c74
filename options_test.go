package fdx_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fdx"
	"fdx/internal/core"
	"fdx/internal/obs"
)

// invalidOptions lists one option set per rule of Options.Validate,
// including every value that once ran a meaningless or misleading
// pipeline: λ −3 failed as singular covariance, λ −0.001 returned FDs,
// RelFraction 7 returned none, MaxRows −5 ran every row and "bogus" was
// only noticed if the ordering stage was reached.
func invalidOptions() map[string]fdx.Options {
	return map[string]fdx.Options{
		"lambda -3":          {Lambda: -3},
		"lambda -0.001":      {Lambda: -0.001},
		"lambda NaN":         {Lambda: math.NaN()},
		"lambda +Inf":        {Lambda: math.Inf(1)},
		"threshold NaN":      {Threshold: math.NaN()},
		"threshold -Inf":     {Threshold: math.Inf(-1)},
		"rel fraction 7":     {RelFraction: 7},
		"rel fraction NaN":   {RelFraction: math.NaN()},
		"ordering bogus":     {Ordering: "bogus"},
		"max rows -5":        {MaxRows: -5},
		"numeric tol -0.1":   {NumericTolerance: -0.1},
		"numeric tol NaN":    {NumericTolerance: math.NaN()},
		"numeric tol +Inf":   {NumericTolerance: math.Inf(1)},
		"ordering Heuristic": {Ordering: "Heuristic"},
	}
}

func TestOptionsValidateAcceptsEveryDocumentedValue(t *testing.T) {
	valid := []fdx.Options{
		{},
		{Lambda: 0.01, Threshold: -1, RelFraction: -1, MaxRows: 100, NumericTolerance: 0.05},
		{RelFraction: 1, Threshold: 1e9},
		{RelFraction: math.Inf(-1)},
	}
	for _, m := range []string{"heuristic", "natural", "amd", "colamd", "metis", "nesdis", "reverse", "random"} {
		valid = append(valid, fdx.Options{Ordering: m})
	}
	for _, opts := range valid {
		if err := opts.Validate(); err != nil {
			t.Errorf("%+v: %v", opts, err)
		}
	}
}

// TestInvalidOptionsRejectedBeforeAnySpan requires every entry point to
// answer ErrBadInput before its first stage: the attached tracer records
// no span, an accumulator absorbs no batch and its WAL stays empty.
func TestInvalidOptionsRejectedBeforeAnySpan(t *testing.T) {
	rel := noisyAddressRelation(rand.New(rand.NewSource(4)), 200, 0.01)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ok.fdx")
	if err := fdx.NewAccumulator(rel.AttrNames(), fdx.Options{}).SaveCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range invalidOptions() {
		t.Run(name, func(t *testing.T) {
			if err := opts.Validate(); !errors.Is(err, fdx.ErrBadInput) {
				t.Fatalf("Validate: %v, want ErrBadInput", err)
			}
			tr := fdx.NewTracer()
			opts.Tracer = tr
			check := func(entry string, err error) {
				t.Helper()
				if !errors.Is(err, fdx.ErrBadInput) {
					t.Errorf("%s: err = %v, want ErrBadInput", entry, err)
				}
				if n := len(tr.Spans()); n != 0 {
					t.Errorf("%s: %d spans recorded, want none", entry, n)
				}
			}
			_, err := fdx.Discover(rel, opts)
			check("Discover", err)
			_, _, err = fdx.DiscoverStable(rel, opts, fdx.StabilityOptions{Runs: 2})
			check("DiscoverStable", err)

			acc := fdx.NewAccumulator(rel.AttrNames(), opts)
			check("Add", acc.Add(rel))
			walPath := filepath.Join(t.TempDir(), "a.fdx"+fdx.WALSuffix)
			wal, err := fdx.OpenWAL(walPath)
			if err != nil {
				t.Fatal(err)
			}
			check("AddLogged", acc.AddLogged(rel, wal))
			wal.Close()
			if info, err := os.Stat(walPath); err != nil || info.Size() != 0 {
				t.Errorf("WAL stat %v, err %v: want an empty log", info, err)
			}
			if acc.Batches() != 0 || acc.Rows() != 0 {
				t.Errorf("accumulator absorbed %d batches, %d rows", acc.Batches(), acc.Rows())
			}
			_, err = acc.Discover()
			check("Accumulator.Discover", err)
			_, err = fdx.RestoreAccumulator(bytes.NewReader(snap), opts)
			check("RestoreAccumulator", err)
			_, err = fdx.LoadCheckpoint(ckpt, opts)
			check("LoadCheckpoint", err)
		})
	}
}

// TestDiscoverSpansMatchCore requires the public Discover and core's
// driver to open the same spans: one driver, so a traced run looks the
// same from either entry, including on a relation with no attributes.
func TestDiscoverSpansMatchCore(t *testing.T) {
	for name, rel := range map[string]*fdx.Relation{
		"address":    noisyAddressRelation(rand.New(rand.NewSource(6)), 300, 0.02),
		"no columns": fdx.NewRelation("empty"),
	} {
		t.Run(name, func(t *testing.T) {
			pub := fdx.NewTracer()
			if _, err := fdx.Discover(rel, fdx.Options{Seed: 3, Tracer: pub}); err != nil {
				t.Fatal(err)
			}
			inner := fdx.NewTracer()
			if _, err := core.DiscoverContext(context.Background(), rel, core.Options{Seed: 3, Obs: obs.Hooks{Tracer: inner}}); err != nil {
				t.Fatal(err)
			}
			if got, want := spanNames(pub), spanNames(inner); !slices.Equal(got, want) {
				t.Errorf("fdx.Discover spans %v\ncore.DiscoverContext spans %v", got, want)
			}
		})
	}
}

// spanNames returns the sorted names of every span the tracer recorded.
func spanNames(tr *fdx.Tracer) []string {
	var names []string
	for _, sp := range tr.Spans() {
		names = append(names, sp.Name())
	}
	slices.Sort(names)
	return names
}
