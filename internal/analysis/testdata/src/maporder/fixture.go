// Package maporder is a fixture for the maporder analyzer.
package maporder

import (
	"math/rand"
	"sort"
)

// Keys appends map keys in iteration order and never sorts them.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m { // want:maporder
		out = append(out, k)
	}
	return out
}

// SortedKeys appends map keys but sorts them afterwards: not a finding.
func SortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Total accumulates a float over the map; the iteration order changes the
// low bits of the sum.
func Total(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want:maporder
		sum += v
	}
	return sum
}

// Count is commutative aggregation: not a finding.
func Count(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// Jitter draws from a seeded generator in map order, so which key gets
// which draw changes from run to run.
func Jitter(m map[string]float64, rng *rand.Rand) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m { // want:maporder
		out[k] = v + rng.Float64()
	}
	return out
}

// JitterSorted draws in sorted key order: not a finding.
func JitterSorted(keys []string, m map[string]float64, rng *rand.Rand) {
	for _, k := range keys {
		m[k] += rng.Float64()
	}
}
