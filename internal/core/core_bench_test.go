package core

import (
	"context"
	"math/rand"
	"testing"
)

func BenchmarkTransform1kx12(b *testing.B)  { benchTransform(b, 1000, 12) }
func BenchmarkTransform10kx12(b *testing.B) { benchTransform(b, 10000, 12) }
func BenchmarkTransform1kx48(b *testing.B)  { benchTransform(b, 1000, 48) }

func benchTransform(b *testing.B, rows, cols int) {
	rng := rand.New(rand.NewSource(1))
	data := make([][]int, rows)
	for i := range data {
		data[i] = make([]int, cols)
		for j := range data[i] {
			data[i][j] = rng.Intn(16)
		}
	}
	names := make([]string, cols)
	for j := range names {
		names[j] = "a"
	}
	rel := relFromCodes(data, names...)
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
