package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzMatMulTiledVsNaive drives the tiled a·b, aᵀ·b, and a·bᵀ kernels
// against their naive references with fuzzer-chosen shapes, a fuzzer-chosen
// extra zero density (zr/256 of the entries on top of fillAdversarial's
// quarter — the half-zero seeds look like ReLU activations and split the
// fused axpy4 groups every which way), and a raw float64 bit pattern
// injected into one element, requiring bit-for-bit identical outputs.
// Shapes are clamped so each case runs in microseconds; the corpus seeds
// cover block-boundary and degenerate 1×N/N×1 shapes.
func FuzzMatMulTiledVsNaive(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), int64(0), uint64(0))
	f.Add(uint8(1), uint8(65), uint8(1), uint8(0), int64(1), math.Float64bits(-0.0))           // 1×N · N×1 across blockK
	f.Add(uint8(64), uint8(64), uint8(64), uint8(0), int64(2), math.Float64bits(1e300))        // exact block multiple
	f.Add(uint8(65), uint8(63), uint8(66), uint8(0), int64(3), math.Float64bits(math.Inf(1)))  // straddles blockK
	f.Add(uint8(7), uint8(129), uint8(3), uint8(0), int64(4), math.Float64bits(math.NaN()))    // two k-blocks + NaN
	f.Add(uint8(40), uint8(128), uint8(10), uint8(85), int64(5), uint64(0))                    // half zeros, MLP hidden shape
	f.Add(uint8(33), uint8(130), uint8(67), uint8(85), int64(6), math.Float64bits(math.NaN())) // half zeros + NaN, off-4 dims
	f.Add(uint8(13), uint8(70), uint8(9), uint8(170), int64(7), math.Float64bits(math.Inf(-1)))
	f.Fuzz(func(t *testing.T, mr, kr, nr, zr uint8, seed int64, raw uint64) {
		m := int(mr)%72 + 1
		k := int(kr)%140 + 1 // crosses the blockK=64 boundary twice
		n := int(nr)%72 + 1
		rng := rand.New(rand.NewSource(seed))
		a, b := New(m, k), New(k, n)
		fillAdversarial(a, rng)
		fillAdversarial(b, rng)
		for _, d := range [][]float64{a.Data(), b.Data()} {
			for i := range d {
				if rng.Intn(256) < int(zr) {
					d[i] = 0
				}
			}
		}
		// Inject the fuzzer's raw bit pattern (possibly Inf/NaN/denormal)
		// into one element of each operand.
		a.Data()[rng.Intn(m*k)] = math.Float64frombits(raw)
		b.Data()[rng.Intn(k*n)] = math.Float64frombits(raw)

		if got, want := matMul(a, b), MatMulNaive(a, b); !bitIdentical(got, want) {
			t.Fatalf("MatMul (%d,%d)x(%d,%d) diverges from naive", m, k, k, n)
		}
		at := transpose(a)
		if got, want := matMulTransA(at, b), MatMulTransANaive(at, b); !bitIdentical(got, want) {
			t.Fatalf("MatMulTransA (%d,%d)ᵀx(%d,%d) diverges from naive", k, m, k, n)
		}
		bt := transpose(b)
		if got, want := matMulTransB(a, bt), MatMulTransBNaive(a, bt); !bitIdentical(got, want) {
			t.Fatalf("MatMulTransB (%d,%d)x(%d,%d)ᵀ diverges from naive", m, k, n, k)
		}
	})
}

// FuzzIm2ColTiledVsNaive drives the patch-unroll and its adjoint against
// the references across fuzzer-chosen geometries, skipping invalid ones
// exactly when the reference would reject them.
func FuzzIm2ColTiledVsNaive(f *testing.F) {
	f.Add(uint8(3), uint8(8), uint8(8), uint8(3), uint8(1), uint8(1), int64(0))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), int64(1))
	f.Add(uint8(2), uint8(9), uint8(5), uint8(4), uint8(3), uint8(2), int64(2))
	f.Fuzz(func(t *testing.T, cr, hr, wr, kr, sr, pr uint8, seed int64) {
		c := int(cr)%4 + 1
		h := int(hr)%12 + 1
		w := int(wr)%12 + 1
		kh := int(kr)%5 + 1
		kw := int(kr>>4)%5 + 1
		stride := int(sr)%3 + 1
		pad := int(pr) % 3
		if (h+2*pad-kh)/stride+1 <= 0 || (w+2*pad-kw)/stride+1 <= 0 {
			return // the reference panics on empty outputs; geometry invalid
		}
		rng := rand.New(rand.NewSource(seed))
		x := New(c, h, w)
		fillAdversarial(x, rng)
		want := Im2ColNaive(x, kh, kw, stride, pad)
		if got := im2col(x, kh, kw, stride, pad); !bitIdentical(got, want) {
			t.Fatalf("Im2Col diverges: c=%d h=%d w=%d kh=%d kw=%d s=%d p=%d", c, h, w, kh, kw, stride, pad)
		}
		cols := New(want.Dim(0), want.Dim(1))
		fillAdversarial(cols, rng)
		wantIm := Col2ImNaive(cols, c, h, w, kh, kw, stride, pad)
		if got := col2im(cols, c, h, w, kh, kw, stride, pad); !bitIdentical(got, wantIm) {
			t.Fatalf("Col2Im diverges: c=%d h=%d w=%d kh=%d kw=%d s=%d p=%d", c, h, w, kh, kw, stride, pad)
		}
	})
}
