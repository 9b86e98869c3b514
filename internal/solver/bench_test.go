package solver

import (
	"context"
	"math/rand"
	"testing"

	"crsharing/internal/gen"
)

// BenchmarkPortfolio races the default portfolio on a mid-size instance; the
// sub-benchmark shards a stream of solves across goroutines with
// b.SetParallelism, exercising the portfolio under concurrent callers as the
// experiment harness does. It is on the benchdiff gate, so a slow member
// that creeps back onto the default path fails CI.
func BenchmarkPortfolio(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	inst := gen.Random(rng, 3, 6, 0.05, 1.0)
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := NewDefaultPortfolio().Solve(context.Background(), inst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-callers", func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(4)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, _, err := NewDefaultPortfolio().Solve(context.Background(), inst); err != nil {
					b.Errorf("portfolio: %v", err)
					return
				}
			}
		})
	})
}
