package nn

import (
	"math"
	"math/rand"
	"testing"

	"helcfl/internal/tensor"
)

// rowsOf returns rows [lo, hi) of a batch as a batch of its own, sharing
// storage.
func rowsOf(x *tensor.Tensor, lo, hi int) *tensor.Tensor {
	row := x.Size() / x.Dim(0)
	shape := append([]int{hi - lo}, x.Shape()[1:]...)
	return tensor.FromSlice(x.Data()[lo*row:hi*row], shape...)
}

// TestForwardIsRowIndependent pins the row-independence contract of Layer
// on every model kind the experiments build: Forward on a batch equals, bit
// for bit, the row concatenation of Forward on any split of it into
// consecutive chunks. The splits include all 1-row chunks and random cuts,
// and they run on a clone whose scratch a larger batch grew first, so
// stale scratch is in play too. The engine evaluates on several workers by
// cutting the test set into row ranges; a layer that couples rows (a
// batch-statistics BatchNorm, say) fails here before it can change
// evaluation results with the worker count.
func TestForwardIsRowIndependent(t *testing.T) {
	for _, spec := range allocSpecs {
		t.Run(spec.Kind, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			m := spec.Build(rng)
			const n = 37
			x, _ := randomBatch(spec, n, rng)
			want := m.Forward(x, false).Clone()
			k := want.Size() / n

			split := m.Clone()
			big, _ := randomBatch(spec, 64, rng)
			split.Forward(big, false) // grows the clone's scratch past n rows

			cuts := [][]int{make([]int, 0, n+1)}
			for i := 0; i <= n; i++ {
				cuts[0] = append(cuts[0], i) // every chunk one row
			}
			for trial := 0; trial < 8; trial++ {
				c := []int{0}
				for c[len(c)-1] < n {
					c = append(c, min(n, c[len(c)-1]+1+rng.Intn(12)))
				}
				cuts = append(cuts, c)
			}
			for _, c := range cuts {
				for i := 0; i+1 < len(c); i++ {
					lo, hi := c[i], c[i+1]
					got := split.Forward(rowsOf(x, lo, hi), false).Data()
					for j, v := range want.Data()[lo*k : hi*k] {
						if math.Float64bits(got[j]) != math.Float64bits(v) {
							t.Fatalf("cuts %v: rows [%d, %d) logit %d = %v, whole batch gives %v", c, lo, hi, j, got[j], v)
						}
					}
				}
			}
		})
	}
}
