package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The differential harness: the tiled/parallel kernels must be bit-for-bit
// identical to the retained naive references for every shape — including
// dims that are not multiples of the block sizes — and every input,
// including exact zeros (the zero-skip path), negative zeros, and huge
// magnitude spreads. Identity is checked on raw float64 bits, not with a
// tolerance.

// bitIdentical reports whether two tensors match shape and raw bits.
func bitIdentical(a, b *Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return true
}

// fillAdversarial populates t with values that stress accumulation order:
// mixed magnitudes, sign flips, exact zeros (~1/4 of entries), and the
// occasional negative zero.
func fillAdversarial(t *Tensor, rng *rand.Rand) {
	d := t.Data()
	for i := range d {
		switch rng.Intn(8) {
		case 0, 1:
			d[i] = 0
		case 2:
			d[i] = math.Copysign(0, -1)
		case 3:
			d[i] = rng.NormFloat64() * 1e8
		case 4:
			d[i] = rng.NormFloat64() * 1e-8
		default:
			d[i] = rng.NormFloat64()
		}
	}
}

// diffDims cover degenerate vectors, sizes straddling the k/n block
// boundaries, and a few awkward primes.
var diffDims = []int{1, 2, 3, 7, 17, 63, 64, 65, 100, 255, 256, 257}

func TestMatMulTiledMatchesNaiveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		m := diffDims[rng.Intn(len(diffDims))]
		k := diffDims[rng.Intn(len(diffDims))]
		n := diffDims[rng.Intn(len(diffDims))]
		if m*k*n > 1<<22 {
			continue // bound test time; the large-product path is covered below
		}
		a, b := New(m, k), New(k, n)
		fillAdversarial(a, rng)
		fillAdversarial(b, rng)

		want := MatMulNaive(a, b)
		if got := matMul(a, b); !bitIdentical(got, want) {
			t.Fatalf("MatMul (%d,%d)x(%d,%d) diverges from naive", m, k, k, n)
		}
		dst := New(m, n)
		dst.Fill(3.5) // Into must fully overwrite a dirty destination
		MatMulInto(dst, a, b)
		if !bitIdentical(dst, want) {
			t.Fatalf("MatMulInto (%d,%d)x(%d,%d) diverges from naive", m, k, k, n)
		}

		at := transpose(a) // (k, m): aᵀ·b == naive(a)·b
		wantTA := MatMulTransANaive(at, b)
		if got := matMulTransA(at, b); !bitIdentical(got, wantTA) {
			t.Fatalf("MatMulTransA (%d,%d)ᵀx(%d,%d) diverges from naive", k, m, k, n)
		}
		dst.Fill(-1)
		MatMulTransAInto(dst, at, b)
		if !bitIdentical(dst, wantTA) {
			t.Fatalf("MatMulTransAInto (%d,%d)ᵀx(%d,%d) diverges from naive", k, m, k, n)
		}

		bt := transpose(b) // (n, k): a·btᵀ == a·b shapes
		wantTB := MatMulTransBNaive(a, bt)
		if got := matMulTransB(a, bt); !bitIdentical(got, wantTB) {
			t.Fatalf("MatMulTransB (%d,%d)x(%d,%d)ᵀ diverges from naive", m, k, n, k)
		}
		dst.Fill(7)
		MatMulTransBInto(dst, a, bt)
		if !bitIdentical(dst, wantTB) {
			t.Fatalf("MatMulTransBInto (%d,%d)x(%d,%d)ᵀ diverges from naive", m, k, n, k)
		}
	}
}

// TestMatMulParallelMatchesSerial forces the goroutine-sharded path (the
// product exceeds parallelMinFlops and workers > 1) and pins bit-identity
// against both the single-worker tiled run and the naive reference. Runs
// meaningfully under -race: shards must touch disjoint rows.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, k, n := 150, 130, 90 // 1.755M flops > parallelMinFlops
	a, b := New(m, k), New(k, n)
	fillAdversarial(a, rng)
	fillAdversarial(b, rng)
	at, bt := transpose(a), transpose(b)

	prev := SetWorkers(1)
	defer SetWorkers(prev)
	serial := matMul(a, b)
	serialTA := matMulTransA(at, b)
	serialTB := matMulTransB(a, bt)

	for _, w := range []int{2, 3, 8} {
		SetWorkers(w)
		if got := matMul(a, b); !bitIdentical(got, serial) {
			t.Fatalf("parallel MatMul (workers=%d) diverges from serial", w)
		}
		if got := matMulTransA(at, b); !bitIdentical(got, serialTA) {
			t.Fatalf("parallel MatMulTransA (workers=%d) diverges from serial", w)
		}
		if got := matMulTransB(a, bt); !bitIdentical(got, serialTB) {
			t.Fatalf("parallel MatMulTransB (workers=%d) diverges from serial", w)
		}
	}
	if !bitIdentical(serial, MatMulNaive(a, b)) {
		t.Fatal("serial tiled MatMul diverges from naive on the parallel-sized product")
	}
}

func TestIm2ColCol2ImIntoMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct{ c, h, w, kh, kw, stride, pad int }{
		{1, 1, 1, 1, 1, 1, 0},   // degenerate 1x1
		{3, 8, 8, 3, 3, 1, 1},   // the experiment geometry
		{2, 7, 5, 3, 2, 2, 1},   // non-square, stride 2
		{1, 9, 1, 3, 1, 1, 1},   // 1-wide column image
		{4, 16, 16, 5, 5, 3, 2}, // large stride, fat kernel
	}
	for _, tc := range cases {
		x := New(tc.c, tc.h, tc.w)
		fillAdversarial(x, rng)
		want := Im2ColNaive(x, tc.kh, tc.kw, tc.stride, tc.pad)
		dst := New(want.Dim(0), want.Dim(1))
		dst.Fill(9) // Into must fully overwrite a dirty destination
		Im2ColBatchInto(dst, x.Reshape(1, tc.c, tc.h, tc.w), tc.kh, tc.kw, tc.stride, tc.pad)
		if !bitIdentical(dst, want) {
			t.Fatalf("Im2ColBatchInto %+v diverges from naive", tc)
		}

		cols := New(want.Dim(0), want.Dim(1))
		fillAdversarial(cols, rng)
		wantIm := Col2ImNaive(cols, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad)
		dim := New(1, tc.c, tc.h, tc.w)
		dim.Fill(-2)
		Col2ImBatchInto(dim, cols, 1, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad)
		if !bitIdentical(dim.Reshape(tc.c, tc.h, tc.w), wantIm) {
			t.Fatalf("Col2ImBatchInto %+v diverges from naive", tc)
		}
	}
}

// TestMatMulDegenerateVectors pins the 1×N/N×1 edge shapes explicitly.
func TestMatMulDegenerateVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 64, 257} {
		row := New(1, n)
		col := New(n, 1)
		fillAdversarial(row, rng)
		fillAdversarial(col, rng)
		if got, want := matMul(row, col), MatMulNaive(row, col); !bitIdentical(got, want) {
			t.Fatalf("1x%d · %dx1 diverges", n, n)
		}
		if got, want := matMul(col, row), MatMulNaive(col, row); !bitIdentical(got, want) {
			t.Fatalf("%dx1 · 1x%d diverges", n, n)
		}
	}
}

// TestMatMulPanicsPreserved: the tiled kernels must reject the same bad
// shapes the naive kernels rejected.
func TestMatMulPanicsPreserved(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	a23, a32, v3 := New(2, 3), New(3, 2), New(3)
	mustPanic("MatMul mismatch", func() { matMul(a23, a23) })
	mustPanic("MatMul rank", func() { matMul(v3, a23) })
	mustPanic("MatMulTransA mismatch", func() { matMulTransA(a23, a32) })
	mustPanic("MatMulTransB mismatch", func() { matMulTransB(a23, New(2, 4)) })
	mustPanic("MatMulInto bad dst", func() { MatMulInto(New(2, 3), a23, a32) })
	mustPanic("MatMulTransAInto bad dst", func() { MatMulTransAInto(New(2, 2), a23, a23) })
	mustPanic("MatMulTransBInto bad dst", func() { MatMulTransBInto(New(3, 3), a23, New(4, 3)) })
	mustPanic("Im2ColBatchInto bad dst", func() { Im2ColBatchInto(New(1, 1), New(1, 1, 4, 4), 3, 3, 1, 0) })
	mustPanic("Col2ImBatchInto bad dst", func() { Col2ImBatchInto(New(1, 1, 2, 2), New(9, 4), 1, 1, 4, 4, 3, 3, 1, 0) })
	mustPanic("Col2ImBatchInto zero stride", func() { Col2ImBatchInto(New(1, 1, 4, 4), New(9, 4), 1, 1, 4, 4, 3, 3, 0, 0) })
}

// TestConvBatchKernelsMatchPerSample pins the batched (sample-major) im2col
// and col2im against per-sample naive assembly, serial and with the batch
// dimension force-sharded across goroutines.
func TestConvBatchKernelsMatchPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b, c, h, w, kh, kw, stride, pad := 5, 3, 8, 8, 3, 3, 1, 1
	x := New(b, c, h, w)
	fillAdversarial(x, rng)
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	ckk, positions, plane := c*kh*kw, oh*ow, c*h*w

	// Per-sample reference assembly.
	wantCols := New(ckk, b*positions)
	for i := 0; i < b; i++ {
		xi := FromSlice(x.Data()[i*plane:(i+1)*plane], c, h, w)
		ci := Im2ColNaive(xi, kh, kw, stride, pad)
		for r := 0; r < ckk; r++ {
			copy(wantCols.Data()[r*b*positions+i*positions:r*b*positions+(i+1)*positions],
				ci.Data()[r*positions:(r+1)*positions])
		}
	}
	cols := New(ckk, b*positions)
	cols.Fill(5)
	Im2ColBatchInto(cols, x, kh, kw, stride, pad)
	if !bitIdentical(cols, wantCols) {
		t.Fatal("Im2ColBatchInto diverges from per-sample naive assembly")
	}

	grad := New(ckk, b*positions)
	fillAdversarial(grad, rng)
	wantImg := New(b, c, h, w)
	scratch := New(ckk, positions)
	for i := 0; i < b; i++ {
		for r := 0; r < ckk; r++ {
			copy(scratch.Data()[r*positions:(r+1)*positions],
				grad.Data()[r*b*positions+i*positions:r*b*positions+(i+1)*positions])
		}
		img := Col2ImNaive(scratch, c, h, w, kh, kw, stride, pad)
		copy(wantImg.Data()[i*plane:(i+1)*plane], img.Data())
	}
	img := New(b, c, h, w)
	img.Fill(-4)
	Col2ImBatchInto(img, grad, b, c, h, w, kh, kw, stride, pad)
	if !bitIdentical(img, wantImg) {
		t.Fatal("Col2ImBatchInto diverges from per-sample naive assembly")
	}

	// Force the goroutine-sharded path — a batch big enough to clear the
	// flops gate (64·(8·3·3)·256 ≈ 1.18M ≥ parallelMinFlops) — and verify
	// bit-identity against the serial result under -race.
	bb, bc := 64, 8
	bx := New(bb, bc, 16, 16)
	fillAdversarial(bx, rng)
	bckk := bc * kh * kw
	bpos := ConvOutSize(16, kh, stride, pad) * ConvOutSize(16, kw, stride, pad)
	bgrad := New(bckk, bb*bpos)
	fillAdversarial(bgrad, rng)

	prev := SetWorkers(1)
	defer SetWorkers(prev)
	serialCols := New(bckk, bb*bpos)
	Im2ColBatchInto(serialCols, bx, kh, kw, stride, pad)
	serialImg := New(bb, bc, 16, 16)
	Col2ImBatchInto(serialImg, bgrad, bb, bc, 16, 16, kh, kw, stride, pad)
	for _, workers := range []int{2, 5} {
		SetWorkers(workers)
		cols2 := New(bckk, bb*bpos)
		Im2ColBatchInto(cols2, bx, kh, kw, stride, pad)
		if !bitIdentical(cols2, serialCols) {
			t.Fatalf("sharded Im2ColBatchInto (workers=%d) diverges", workers)
		}
		img2 := New(bb, bc, 16, 16)
		Col2ImBatchInto(img2, bgrad, bb, bc, 16, 16, kh, kw, stride, pad)
		if !bitIdentical(img2, serialImg) {
			t.Fatalf("sharded Col2ImBatchInto (workers=%d) diverges", workers)
		}
	}
}

// fillRowPatterns gives row i of a (m, k) exactly counts[i%len(counts)]
// nonzero entries in every k-block, at random positions (fillAdversarial
// values, so ±0 still counts as zero). A count of 0 is an all-zero row.
// These drive the fused kernels through every split of a k-block into
// axpy4 groups of four plus an axpyPanel tail of 0–3.
func fillRowPatterns(a *Tensor, counts []int, rng *rand.Rand) {
	m, k := a.Dim(0), a.Dim(1)
	d := a.Data()
	for i := 0; i < m; i++ {
		row := d[i*k : (i+1)*k]
		for kb := 0; kb < k; kb += blockK {
			blk := row[kb:min(kb+blockK, k)]
			clear(blk)
			for _, pi := range rng.Perm(len(blk))[:min(counts[i%len(counts)], len(blk))] {
				for blk[pi] == 0 {
					blk[pi] = rng.NormFloat64()
				}
			}
		}
	}
}

// TestFusedKernelsMatchNaiveOnSparsePatterns runs the a·b, aᵀ·b and a·bᵀ
// kernels over rows holding 0, 1, 2, 3, 4, 5, 63 and 64 nonzeros per
// k-block, with m and n off multiples of four, at one and four workers
// (the 40×130×258 product clears parallelMinFlops, so four workers
// shard), against the naive oracles.
func TestFusedKernelsMatchNaiveOnSparsePatterns(t *testing.T) {
	counts := []int{0, 1, 2, 3, 4, 5, 63, 64}
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		for _, dims := range [][3]int{{40, 130, 258}, {19, 130, 7}, {9, 64, 5}, {11, 3, 13}} {
			m, k, n := dims[0], dims[1], dims[2]
			rng := rand.New(rand.NewSource(int64(m*k*n + workers)))
			a, b := New(m, k), New(k, n)
			fillRowPatterns(a, counts, rng)
			fillAdversarial(b, rng)
			at, bt := transpose(a), transpose(b)
			dst := New(m, n)

			dst.Fill(3)
			MatMulInto(dst, a, b)
			if !bitIdentical(dst, MatMulNaive(a, b)) {
				t.Fatalf("workers=%d MatMulInto (%d,%d)x(%d,%d) diverges from naive", workers, m, k, k, n)
			}
			dst.Fill(3)
			MatMulTransAInto(dst, at, b)
			if !bitIdentical(dst, MatMulTransANaive(at, b)) {
				t.Fatalf("workers=%d MatMulTransAInto (%d,%d)ᵀx(%d,%d) diverges from naive", workers, k, m, k, n)
			}
			dst.Fill(3)
			MatMulTransBInto(dst, a, bt)
			if !bitIdentical(dst, MatMulTransBNaive(a, bt)) {
				t.Fatalf("workers=%d MatMulTransBInto (%d,%d)x(%d,%d)ᵀ diverges from naive", workers, m, k, n, k)
			}
		}
	}
}

// TestZeroSkipHidesNonFiniteB puts NaN, +Inf and -Inf in every b row that
// meets only zero a entries (±0): the a·b and aᵀ·b kernels skip those
// terms, as the naive oracles do, so the product stays finite. (a·bᵀ has
// no zero-skip in its oracle, so it is not held to this.)
func TestZeroSkipHidesNonFiniteB(t *testing.T) {
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		rng := rand.New(rand.NewSource(int64(8 + workers)))
		m, k, n := 40, 130, 258
		a, b := New(m, k), New(k, n)
		fillRowPatterns(a, []int{1, 3, 4, 5, 63}, rng)
		fillAdversarial(b, rng)
		// Every fifth a column zero (±0 mixed), so across TransA's groups of
		// four the zero lands in each position in turn.
		for p := 2; p < k; p += 5 {
			for i := 0; i < m; i++ {
				a.Data()[i*k+p] = math.Copysign(0, float64(i%2)-0.5)
			}
			for j := 0; j < n; j++ {
				b.Data()[p*n+j] = nonFinite[(p+j)%len(nonFinite)]
			}
		}
		at := transpose(a)
		check := func(name string, got, want *Tensor) {
			t.Helper()
			if !bitIdentical(got, want) {
				t.Fatalf("workers=%d %s diverges from naive", workers, name)
			}
			for _, v := range got.Data() {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("workers=%d %s let a non-finite b entry under a zero a through: %v", workers, name, v)
				}
			}
		}
		dst := New(m, n)
		MatMulInto(dst, a, b)
		check("MatMulInto", dst, MatMulNaive(a, b))
		MatMulTransAInto(dst, at, b)
		check("MatMulTransAInto", dst, MatMulTransANaive(at, b))
	}
}
