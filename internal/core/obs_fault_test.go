package core

import (
	"context"
	"testing"
	"time"

	"fdx/internal/faults"
	"fdx/internal/obs"
)

// TestFaultSlowStageVisibleInTransformSpan arms the slow-stage fault once
// — it fires in the transform's first attribute block — and checks the
// tracer attributes the delay to the transform span, not to a later stage.
// This is the telemetry-validates-faults loop: the trace must localize an
// injected stall to the stage that actually stalled.
func TestFaultSlowStageVisibleInTransformSpan(t *testing.T) {
	defer faults.Reset()
	const delay = 40 * time.Millisecond
	faults.Arm(faults.SlowStage, faults.Config{Times: 1, Delay: delay})

	tr := obs.New()
	opts := Options{Transform: TransformOptions{Workers: 1}, Obs: obs.Hooks{Tracer: tr}}
	if _, err := Discover(fdRelation(60), opts); err != nil {
		t.Fatalf("Discover: %v", err)
	}

	transforms := tr.Find("transform")
	if len(transforms) != 1 {
		t.Fatalf("found %d transform spans, want 1", len(transforms))
	}
	if d := transforms[0].Duration(); d < delay {
		t.Errorf("transform span lasted %v, want at least the injected %v", d, delay)
	}
	// The fault fired inside transform, so later stages must not absorb it.
	gens := tr.Find("generate")
	if len(gens) != 1 {
		t.Fatalf("found %d generate spans, want 1", len(gens))
	}
	if d := gens[0].Duration(); d >= delay {
		t.Errorf("generate span lasted %v; the injected delay leaked out of the transform span", d)
	}
}

// TestFaultSlowStageVisibleInSweepSpan arms the fault after the transform
// has already run, so the single injected stall lands in the first glasso
// sweep; the sweep's span must carry it.
func TestFaultSlowStageVisibleInSweepSpan(t *testing.T) {
	defer faults.Reset()
	const delay = 40 * time.Millisecond

	// Transform fault-free first, then discover from the samples with the
	// fault armed: the only faults.Sleep left on the path is the sweep's.
	rel := fdRelation(60)
	pb, err := TransformBitsContext(context.Background(), rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := rel.AttrNames()

	tr := obs.New()
	faults.Arm(faults.SlowStage, faults.Config{Times: 1, Delay: delay})
	opts := Options{Transform: TransformOptions{Workers: 1}, Obs: obs.Hooks{Tracer: tr}}
	if _, err := DiscoverFromBitsContext(context.Background(), pb, names, opts); err != nil {
		t.Fatalf("DiscoverFromBitsContext: %v", err)
	}

	sweeps := tr.Find("glasso-sweep")
	if len(sweeps) == 0 {
		t.Fatal("no glasso-sweep spans recorded")
	}
	if d := sweeps[0].Duration(); d < delay {
		t.Errorf("first glasso-sweep span lasted %v, want at least the injected %v", d, delay)
	}
	var rest time.Duration
	for _, sp := range sweeps[1:] {
		rest += sp.Duration()
	}
	if rest >= delay {
		t.Errorf("later sweeps lasted %v combined; the injected delay should be confined to the first", rest)
	}
}
