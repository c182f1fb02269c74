package core

import (
	"context"
	"math/rand"
	"testing"

	"fdx/internal/dataset"
)

func BenchmarkTransform1kx12(b *testing.B)  { benchTransform(b, 1000, 12) }
func BenchmarkTransform10kx12(b *testing.B) { benchTransform(b, 10000, 12) }
func BenchmarkTransform1kx48(b *testing.B)  { benchTransform(b, 1000, 48) }

func benchTransform(b *testing.B, rows, cols int) {
	runTransformBench(b, benchRelation(rows, cols, 16))
}

// BenchmarkPairKernel times the pair transform on two shapes: an
// Alarm-shaped relation (50,000 rows, 37 attributes, domains of 2–4) that
// runs entirely on the byte-packed compare, and one whose every column
// has cardinality ≥ 255, so every attribute takes the per-pair exception
// loop. Run at -cpu 1,2 to see both the kernel and its fan-out.
func BenchmarkPairKernel(b *testing.B) {
	b.Run("alarm-50000x37", func(b *testing.B) { runTransformBench(b, benchRelation(50000, 37, 4)) })
	b.Run("wide-card-10000x12", func(b *testing.B) { runTransformBench(b, benchRelation(10000, 12, 400)) })
}

// benchRelation is a rows × cols relation of uniform codes over domain
// values per column, seeded identically for every run.
func benchRelation(rows, cols, domain int) *dataset.Relation {
	rng := rand.New(rand.NewSource(1))
	data := make([][]int, rows)
	for i := range data {
		data[i] = make([]int, cols)
		for j := range data[i] {
			data[i][j] = rng.Intn(domain)
		}
	}
	names := make([]string, cols)
	for j := range names {
		names[j] = "a"
	}
	return relFromCodes(data, names...)
}

func runTransformBench(b *testing.B, rel *dataset.Relation) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TransformBitsContext(context.Background(), rel, Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscover1kx12(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	rel := makeFDRelation(rng, 1000, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Discover(rel, Options{Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
