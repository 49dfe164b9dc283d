package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// axpy4Scalar and axpyPanelScalar are the plain loops the kernels'
// four-lane bodies must reproduce.
func axpy4Scalar(out, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	for j := range b0 {
		s := out[j] + a0*b0[j]
		s += a1 * b1[j]
		s += a2 * b2[j]
		s += a3 * b3[j]
		out[j] = s
	}
}

func axpyPanelScalar(out, brow []float64, av float64) {
	for j := range brow {
		out[j] += av * brow[j]
	}
}

// sameFloat reports whether x and y have the same bits, or are both NaN.
// NaN payloads are not pinned: when both operands of an add are NaN, x86
// returns the first one's payload, and the compiler picks the operand
// order per statement (axpy4's own compiled loop puts the product first
// in some terms and the running sum first in others).
func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
}

// TestAxpyLanesMatchScalar pins axpy4, axpyPanel and AXPY to the scalar
// loops above, with the AVX lanes on and off: at every width from 0 to 17
// and around 32 and 256 (each split of the four-lane bulk and its 0–3
// element tail), at unaligned starts, on ±0, subnormals, ±Inf, NaN and
// ±1e300 in both operands and coefficients. The backing array past
// len(out) holds sentinels that must come back untouched.
func TestAxpyLanesMatchScalar(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310,
		math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300}
	var widths []int
	for n := 0; n <= 17; n++ {
		widths = append(widths, n)
	}
	widths = append(widths, 31, 32, 33, 255, 256, 257)
	const sentinel, pad = -123.25, 5

	for _, avx := range []bool{false, true} {
		t.Run(fmt.Sprintf("avx=%v", avx), func(t *testing.T) {
			withAVX(t, avx)
			rng := rand.New(rand.NewSource(11))
			draw := func() float64 {
				if rng.Intn(4) == 0 {
					return specials[rng.Intn(len(specials))]
				}
				return rng.NormFloat64()
			}
			// row returns n drawn values starting off elements into a
			// fresh array, so the slice is unaligned for off > 0.
			row := func(off, n int) []float64 {
				back := make([]float64, off+n+pad)
				for i := range back {
					back[i] = draw()
				}
				return back[off : off+n]
			}
			// dest returns an out row like row, with sentinels past its end.
			dest := func(off, n int) []float64 {
				out := row(off, n)
				ext := out[:n+pad]
				for i := n; i < len(ext); i++ {
					ext[i] = sentinel
				}
				return out
			}
			check := func(name string, n, off int, got, want []float64) {
				t.Helper()
				for j := range want {
					if !sameFloat(got[j], want[j]) {
						t.Fatalf("%s n=%d off=%d: out[%d] = %v (%#x), scalar %v (%#x)", name, n, off,
							j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
					}
				}
				for i, v := range got[len(want) : len(want)+pad] {
					if v != sentinel {
						t.Fatalf("%s n=%d off=%d: wrote %v past len(out) at +%d", name, n, off, v, i)
					}
				}
			}
			for _, n := range widths {
				for off := 0; off < 4; off++ {
					out := dest(off, n)
					b0, b1, b2, b3 := row(off, n), row((off+1)%4, n), row((off+2)%4, n), row((off+3)%4, n)
					a0, a1, a2, a3 := draw(), draw(), draw(), draw()

					want := append([]float64(nil), out...)
					axpy4Scalar(want, b0, b1, b2, b3, a0, a1, a2, a3)
					axpy4(out, b0, b1, b2, b3, a0, a1, a2, a3)
					check("axpy4", n, off, out[:n+pad], want)

					want = append(want[:0], out...)
					axpyPanelScalar(want, b1, a1)
					axpyPanel(out, b1, a1)
					check("axpyPanel", n, off, out[:n+pad], want)

					if n == 0 {
						continue // a tensor has at least one element
					}
					want = append(want[:0], out...)
					axpyPanelScalar(want, b2, a2)
					FromSlice(out, n).AXPY(a2, FromSlice(b2, n))
					check("AXPY", n, off, out[:n+pad], want)
				}
			}
		})
	}
}

// TestMatMulDiffSuiteWithoutAVX reruns the matmul differential tests with
// the AVX lanes off, so an AVX machine still checks the scalar loops that
// other CPUs and GOARCHes run end to end.
func TestMatMulDiffSuiteWithoutAVX(t *testing.T) {
	withAVX(t, false)
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"TiledMatchesNaiveBitwise", TestMatMulTiledMatchesNaiveBitwise},
		{"ParallelMatchesSerial", TestMatMulParallelMatchesSerial},
		{"DegenerateVectors", TestMatMulDegenerateVectors},
		{"FusedKernelsMatchNaiveOnSparsePatterns", TestFusedKernelsMatchNaiveOnSparsePatterns},
		{"ZeroSkipHidesNonFiniteB", TestZeroSkipHidesNonFiniteB},
	} {
		t.Run(tc.name, tc.run)
	}
}
