package radix

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// item is a key, a tie-break tag, and its input position, so stability
// is observable.
type item struct {
	k        uint64
	tag, pos int
}

func itemKey(e item) uint64 { return e.k }

// TestSortMatchesStableSort pins Sort to slices.SortStableFunc on the same
// keys, with and without a tie comparator (here: a tag that also orders
// runs of equal keys): random 64-bit keys, keys from a handful of values
// (forced ties), keys that differ in one digit only (every other pass
// skipped), all-equal keys, keys already ascending with and without ties
// (the in-order exit), descending keys, and the empty and one-element
// slices.
func TestSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var i uint64
	draws := []struct {
		name string
		draw func() uint64
	}{
		{"random", rng.Uint64},
		{"ties", func() uint64 { return uint64(rng.Intn(4)) << 40 }},
		{"one digit", func() uint64 { return 0xabcd<<48 | uint64(rng.Intn(256))<<16 }},
		{"all equal", func() uint64 { return 7 }},
		{"low digits", func() uint64 { return uint64(rng.Intn(1 << 12)) }},
		{"ascending", func() uint64 { i += 1 + uint64(rng.Intn(1000)); return i }},
		{"runs", func() uint64 { i += uint64(rng.Intn(2)); return i << 20 }},
		{"descending", func() uint64 { i -= 1 + uint64(rng.Intn(1000)); return i }},
	}
	byTag := func(x, y item) int { return cmp.Compare(x.tag, y.tag) }
	for _, d := range draws {
		for _, n := range []int{0, 1, 2, 3, 17, 256, 1000, 5000} {
			for _, tie := range []func(x, y item) int{nil, byTag} {
				i = 1 << 62
				a := make([]item, n)
				for j := range a {
					a[j] = item{d.draw(), rng.Intn(3), j}
				}
				want := slices.Clone(a)
				slices.SortStableFunc(want, func(x, y item) int {
					if c := cmp.Compare(x.k, y.k); c != 0 || tie == nil {
						return c
					}
					return tie(x, y)
				})
				Sort(a, make([]item, n), itemKey, tie)
				if !slices.Equal(a, want) {
					t.Fatalf("%s n=%d tie=%v: radix order differs from the stable sort", d.name, n, tie != nil)
				}
			}
		}
	}
}

// TestKeyOrdersFloats checks that Key's unsigned order is the float order
// on pairs drawn from raw bit patterns and edge values, with −0 tying +0.
func TestKeyOrdersFloats(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	edges := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
		1, -1, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1)}
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		for {
			if x := math.Float64frombits(rng.Uint64()); !math.IsNaN(x) {
				return x
			}
		}
	}
	for i := 0; i < 100000; i++ {
		x, y := draw(), draw()
		if got, want := cmp.Compare(Key(x), Key(y)), cmp.Compare(x, y); got != want {
			t.Fatalf("Key order of %g vs %g is %d, float order %d", x, y, got, want)
		}
	}
}
