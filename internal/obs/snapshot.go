package obs

import (
	"fmt"
	"math"
	"sort"
)

// SeriesKind says how a sampled series' Raw value is interpreted (and how
// the flight recorder delta-encodes it).
type SeriesKind uint8

const (
	// KindCounter marks a monotonically non-decreasing series; Raw is the
	// count itself. Deltas are encoded as the difference.
	KindCounter SeriesKind = 1
	// KindGauge marks a free-moving series; Raw is math.Float64bits of the
	// value. Deltas are encoded as the XOR with the previous bits.
	KindGauge SeriesKind = 2
)

// Series is one named time-series value in a registry snapshot: the unit
// the flight recorder samples, encodes, and decodes.
type Series struct {
	Name string
	Kind SeriesKind
	Raw  uint64
}

// GaugeBits converts a float64 to the Raw representation of a KindGauge
// series (the inverse of Series.Number for gauges).
func GaugeBits(v float64) uint64 { return math.Float64bits(v) }

// Number returns the series value as a float64 regardless of kind.
func (s Series) Number() float64 {
	if s.Kind == KindGauge {
		return math.Float64frombits(s.Raw)
	}
	return float64(s.Raw)
}

// Snapshot returns every metric in the registry as a flat, name-sorted
// series list. Counters appear as themselves; gauges as float bits;
// histograms expand Prometheus-style into <base>_count, <base>_sum, and a
// cumulative <base>_bucket{le="..."} series per bound (labels on the
// histogram name are preserved on each derived series). The deterministic
// order makes consecutive snapshots of an unchanged registry structurally
// identical, which is what the flight recorder's delta encoding needs.
func (r *Registry) Snapshot() []Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	out := make([]Series, 0, len(counters)+len(gauges)+4*len(hists))
	for name, c := range counters {
		out = append(out, Series{Name: name, Kind: KindCounter, Raw: c.Value()})
	}
	for name, g := range gauges {
		out = append(out, Series{Name: name, Kind: KindGauge, Raw: math.Float64bits(g.Value())})
	}
	for name, h := range hists {
		base, labels := splitLabels(name)
		bounds, cum := h.Buckets()
		for i, b := range bounds {
			out = append(out, Series{
				Name: fmt.Sprintf("%s_bucket{%sle=%q}", base, labels, promFloat(b)),
				Kind: KindCounter,
				Raw:  cum[i],
			})
		}
		out = append(out, Series{Name: base + "_count" + braced(labels), Kind: KindCounter, Raw: h.Count()})
		out = append(out, Series{Name: base + "_sum" + braced(labels), Kind: KindGauge, Raw: math.Float64bits(h.Sum())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ServeBuckets are the request-latency bucket bounds (seconds) used by the
// fdxd service histograms: 250µs to ~65s in powers of two.
var ServeBuckets = []float64{
	0.00025, 0.0005, 0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064,
	0.125, 0.25, 0.5, 1, 2, 4, 8, 16, 32, 64,
}
