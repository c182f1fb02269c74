package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the repository root's BENCHMARK.json, the part these
// tests compare with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return &bj
}

// units maps each metric listed in BENCHMARK.json for the mode to its unit.
func (bj *benchmarkJSON) units(trace bool) map[string]string {
	out := map[string]string{}
	list := bj.EndToEnd
	if trace {
		list = bj.PerLayer
	}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, w := range []string{"wide", "tall"} {
		a, err := genBatch(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genBatch(w, 7)
		c, _ := genBatch(w, 8)
		if !bytes.Equal(a.csv, b.csv) {
			t.Errorf("%s: seed 7 generated different CSV bytes twice", w)
		}
		if bytes.Equal(a.csv, c.csv) {
			t.Errorf("%s: seeds 7 and 8 generated the same CSV bytes", w)
		}
	}
	for c := 0; c < ingestClients; c++ {
		a, err := genIngest(7, c)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genIngest(7, c)
		d, _ := genIngest(8, c)
		join := func(in *ingestInput) []byte { return bytes.Join(in.bodies, nil) }
		if !bytes.Equal(join(a), join(b)) {
			t.Errorf("ingest client %d: seed 7 generated different request bodies twice", c)
		}
		if bytes.Equal(join(a), join(d)) {
			t.Errorf("ingest client %d: seeds 7 and 8 generated the same request bodies", c)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON checks the command's metric lists
// against BENCHMARK.json in both directions, with units.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, trace := range []bool{false, true} {
		want := bj.units(trace)
		list := endToEnd
		if trace {
			list = perLayer
		}
		if len(list) != len(want) {
			t.Errorf("trace=%v: the command has %d metrics, BENCHMARK.json %d", trace, len(list), len(want))
		}
		for _, s := range list {
			if u, ok := want[s.name]; !ok || u != s.unit {
				t.Errorf("trace=%v: %s [%s] is not in BENCHMARK.json with that unit (%q)", trace, s.name, s.unit, u)
			}
		}
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command %v", names, workloads)
	}
}

// TestShortRuns runs every workload briefly in both modes through the
// command's entry point: each must exit 0, pass its correctness checks,
// and print exactly BENCHMARK.json's metrics for the mode.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; about a minute")
	}
	bj := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := mainErr([]string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace, "--out", t.TempDir()}, &stdout, &stderr)
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("exit %d, last line not a result: %v\n%s%s", code, err, stdout.String(), stderr.String())
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("exit %d, result %+v\n%s", code, res, stdout.String())
				}
				want := bj.units(trace == "1")
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for name, m := range res.Metrics {
					if want[name] != m.Unit {
						t.Errorf("printed %s [%s], BENCHMARK.json has [%s]", name, m.Unit, want[name])
					}
				}
			})
		}
	}
}

func TestUsageErrorPrintsNoResult(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := mainErr([]string{"--workload", "nope", "--out", t.TempDir()}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	q, v, beyond, ok := tail(xs)
	if !ok || q != 90 || v != 90 || beyond != 10 {
		t.Errorf("tail of 1..100 = p%d %g with %d beyond (ok=%v), want p90 90 with 10", q, v, beyond, ok)
	}
	if _, _, _, ok := tail(xs[:10]); ok {
		t.Error("tail of 10 samples should have no percentile with 10 beyond")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer("test")
	root := tr.start("discover", 0)
	child := tr.start("core.model", root)
	grand := tr.start("glasso.solve", child)
	tr.end(grand)
	tr.end(child)
	tr.end(root)
	tr.spans[0].Start, tr.spans[0].End = 0, 10e9
	tr.spans[1].Start, tr.spans[1].End = 1e9, 9e9
	tr.spans[2].Start, tr.spans[2].End = 2e9, 5e9
	roots := tr.byRoot("discover")
	if len(roots) != 1 {
		t.Fatalf("got %d roots", len(roots))
	}
	if got := medianSelf(roots, "core.model"); got != 5 {
		t.Errorf("core.model self = %g s, want 5", got)
	}
	if got := medianTotal(roots, "core.model"); got != 8 {
		t.Errorf("core.model total = %g s, want 8", got)
	}
	if got := medianSelf(roots, "absent"); got != 0 {
		t.Errorf("absent layer = %g s, want 0", got)
	}
}
