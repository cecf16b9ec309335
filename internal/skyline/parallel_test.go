package skyline

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/points"
)

// parallel runs ParallelBlock over a uniform-dimensional set.
func parallel(s points.Set, workers int) points.Set {
	blk, _ := points.BlockOf(s)
	return ParallelBlock(context.Background(), blk, workers).ToSet()
}

func TestParallelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		d := 1 + rng.Intn(5)
		n := 1 + rng.Intn(800)
		s := make(points.Set, n)
		for i := range s {
			p := make(points.Point, d)
			for j := range p {
				p[j] = float64(rng.Intn(10))
			}
			s[i] = p
		}
		want := Naive(s)
		for _, workers := range []int{0, 1, 2, 7, 32} {
			got := parallel(s, workers)
			if !sameMultiset(got, want) {
				t.Fatalf("trial %d workers=%d: %d points, oracle %d", trial, workers, len(got), len(want))
			}
		}
	}
}

func TestParallelEmptyAndTiny(t *testing.T) {
	if got := parallel(nil, 4); len(got) != 0 {
		t.Errorf("nil gave %v", got)
	}
	got := parallel(points.Set{{1, 2}}, 8)
	if len(got) != 1 {
		t.Errorf("singleton gave %v", got)
	}
}

func TestParallelDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	s := make(points.Set, 500)
	for i := range s {
		s[i] = points.Point{rng.Float64(), rng.Float64()}
	}
	orig := s.Clone()
	parallel(s, 4)
	for i := range s {
		if !s[i].Equal(orig[i]) {
			t.Fatalf("input mutated at %d", i)
		}
	}
}

func BenchmarkParallelVsSequential(b *testing.B) {
	rng := rand.New(rand.NewSource(63))
	s := make(points.Set, 20000)
	for i := range s {
		s[i] = points.Point{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BNL(s)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parallel(s, 0)
		}
	})
}
