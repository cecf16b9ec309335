package points

import (
	"math/rand"
	"testing"
)

func TestBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		d := 1 + rng.Intn(9)
		n := rng.Intn(200)
		s := make(Set, n)
		for i := range s {
			p := make(Point, d)
			for j := range p {
				p[j] = rng.NormFloat64()
			}
			s[i] = p
		}
		b, ok := BlockOf(s)
		if !ok {
			t.Fatalf("trial %d: uniform set rejected", trial)
		}
		if b.Len() != n || (n > 0 && b.Dim() != d) {
			t.Fatalf("trial %d: block %d×%d, want %d×%d", trial, b.Len(), b.Dim(), n, d)
		}
		back := b.ToSet()
		if len(back) != n {
			t.Fatalf("trial %d: round trip length %d, want %d", trial, len(back), n)
		}
		for i := range s {
			if !back[i].Equal(s[i]) {
				t.Fatalf("trial %d: point %d differs: %v vs %v", trial, i, back[i], s[i])
			}
		}
	}
}

func TestBlockOfMixedDims(t *testing.T) {
	if _, ok := BlockOf(Set{{1, 2}, {3}}); ok {
		t.Fatal("mixed-dimension set accepted")
	}
	if b, ok := BlockOf(nil); !ok || b.Len() != 0 {
		t.Fatal("empty set should yield an empty block")
	}
}

func TestBlockSwapDelete(t *testing.T) {
	b := NewBlock(2, 4)
	b.AppendRow([]float64{1, 1})
	b.AppendRow([]float64{2, 2})
	b.AppendRow([]float64{3, 3})
	b.SwapDelete(0) // last row moves into slot 0
	if b.Len() != 2 {
		t.Fatalf("len %d after delete, want 2", b.Len())
	}
	if b.Row(0)[0] != 3 || b.Row(1)[0] != 2 {
		t.Fatalf("rows after swap-delete: %v %v", b.Row(0), b.Row(1))
	}
	b.SwapDelete(1) // deleting the last row is a plain truncate
	if b.Len() != 1 || b.Row(0)[0] != 3 {
		t.Fatalf("rows after tail delete: len=%d row0=%v", b.Len(), b.Row(0))
	}
}

func TestBlockDimInference(t *testing.T) {
	b := NewBlock(0, 8)
	b.AppendRow([]float64{1, 2, 3})
	if b.Dim() != 3 || b.Len() != 1 {
		t.Fatalf("inferred %d×%d, want 1×3", b.Len(), b.Dim())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row append did not panic")
		}
	}()
	b.AppendRow([]float64{1})
}

func TestBlockSliceAndClone(t *testing.T) {
	b := NewBlock(2, 4)
	for i := 0; i < 4; i++ {
		b.AppendRow([]float64{float64(i), float64(-i)})
	}
	v := b.Slice(1, 3)
	if v.Len() != 2 || v.Row(0)[0] != 1 || v.Row(1)[0] != 2 {
		t.Fatalf("slice view wrong: len=%d", v.Len())
	}
	c := b.Clone()
	b.Row(0)[0] = 99
	if c.Row(0)[0] == 99 {
		t.Fatal("clone shares storage with original")
	}
	// ToSet must copy out: mutating the block afterwards must not change
	// the returned points.
	s := c.ToSet()
	c.Row(0)[0] = -5
	if s[0][0] == -5 {
		t.Fatal("ToSet shares storage with block")
	}
}
