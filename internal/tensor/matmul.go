package tensor

import (
	"fmt"
	"math"
)

// Matrix-multiply kernels.
//
// All three products (a·b, aᵀ·b, a·bᵀ) compute into a caller-owned
// destination with zero heap allocations (MatMul*Into) — the training hot
// path uses them through the layer scratch buffers in internal/nn. The
// straight-loop reference kernels (MatMul*Naive) live with the tests, in
// matmul_naive_test.go.
//
// The compute kernels are blocked/tiled for cache locality, register-
// blocked four reduction terms (axpy4) or four output columns (dot4) per
// inner-loop pass, and, for large products, row-sharded across goroutines.
// Every transformation preserves the exact floating-point accumulation
// order of the naive kernels — each output element takes its terms in
// ascending p with the same zero-skip, every product and sum rounded on its
// own, and parallel shards own disjoint output rows — so every form is
// bit-for-bit identical to its reference. Products stay in the same plain
// x*y form as the references, so a platform that fuses multiply-adds
// fuses both alike. The differential and fuzz tests in this package
// enforce that identity; do not change loop order, zero-skip conditions,
// or accumulation structure without them.
//
// On amd64 CPUs with AVX, axpy4 and axpyPanel hand their whole row to the
// assembly in simd_amd64.s, which runs the same chain four elements per
// instruction (VMULPD, VADDPD, never FMA) and the last 0–3 elements with
// the scalar VEX forms of the same operations. Each lane rounds every
// product and sum on its own, in the Go loop's order, so the lanes change
// no bit but a NaN's payload, which the Go loops do not pin either. The Go
// loops do all the work everywhere else.

const (
	// blockK and blockN tile the reduction and column dimensions so one
	// (blockK × blockN) panel of b (128 KiB of float64) stays cache-hot
	// while every output row streams over it.
	blockK = 64
	blockN = 256
	// parallelMinFlops gates the goroutine-sharded path: below roughly a
	// million multiply-adds the spawn overhead outweighs the concurrency.
	parallelMinFlops = 1 << 20
)

// MatMulInto computes a·b into dst, which must have shape (m, n). dst is
// fully overwritten. Steady-state calls perform zero heap allocations.
func MatMulInto(dst, a, b *Tensor) {
	m, k, n := checkMatMul(a, b)
	checkDst("MatMulInto", dst, m, n)
	dst.Zero()
	if w := WorkersFor(m, m*n*k); w > 1 {
		Shard(m, w, func(lo, hi int) {
			matMulRows(dst.data, a.data, b.data, k, n, lo, hi)
		})
	} else {
		matMulRows(dst.data, a.data, b.data, k, n, 0, m)
	}
}

// axpyPanel adds av·brow elementwise into out (out must be at least as
// long as brow; the reslice lets the compiler drop the out[j] bounds check
// from the loop). It is a separate function on purpose: compiled inside
// the tile loops, the innermost loop has so many live values that the
// induction variable spills to the stack on every iteration — roughly a
// 20% kernel slowdown. A dedicated, never-inlined function gets its own
// clean register set; the call overhead is amortized over a whole panel.
// With useAVX, axpyPanelAVX does the whole row; out and brow must then
// not overlap unless they are the same slice.
//
//go:noinline
func axpyPanel(out, brow []float64, av float64) {
	out = out[:len(brow)]
	if useAVX {
		axpyPanelAVX(out, brow, av)
		return
	}
	for j, bv := range brow {
		out[j] += av * bv
	}
}

// axpy4 adds a0·b0 + a1·b1 + a2·b2 + a3·b3 elementwise into out — four
// axpyPanel passes fused into one, so out[j] is loaded and stored once per
// four multiply-adds instead of once per one. The order argument: each
// term is added to the running sum in turn, b0 first, with every product
// and every sum rounded on its own, so out[j] ends up with exactly the bits
// of axpyPanel(b0, a0) … axpyPanel(b3, a3) run one after another. Callers
// pass the four rows in ascending reduction index. Never inlined for the
// same register reason as axpyPanel. With useAVX, axpy4AVX does the whole
// row.
//
//go:noinline
func axpy4(out, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	n := len(b0)
	out, b1, b2, b3 = out[:n], b1[:n], b2[:n], b3[:n]
	if useAVX {
		axpy4AVX(out, b0, b1, b2, b3, a0, a1, a2, a3)
		return
	}
	for j, v := range b0 {
		s := out[j] + a0*v
		s += a1 * b1[j]
		s += a2 * b2[j]
		s += a3 * b3[j]
		out[j] = s
	}
}

// matMulRows computes output rows [lo, hi) of a·b with k/n tiling. Per
// row and k-block it lists the nonzero a[i, p] in ascending p, then feeds
// them to axpy4 four at a time and the last 0–3 to axpyPanel. For a fixed
// output element, contributions arrive in ascending-p order with the same
// zero-skip as the naive ikj kernel, so the result is bit-identical. The
// listing is branch-free: every p is written to the next free slot, and
// the slot advances only for a nonzero. Behind a ReLU half of a's entries
// are zero at random, which a branch per entry mispredicts.
func matMulRows(dst, a, b []float64, k, n, lo, hi int) {
	var nz [blockK]int // nonzero reduction indices of one row's k-block
	for kb := 0; kb < k; kb += blockK {
		kEnd := min(kb+blockK, k)
		for jb := 0; jb < n; jb += blockN {
			jEnd := min(jb+blockN, n)
			for i := lo; i < hi; i++ {
				arow := a[i*k : (i+1)*k]
				orow := dst[i*n+jb : i*n+jEnd]
				cnt := 0
				for p := kb; p < kEnd; p++ {
					nz[cnt] = p
					cnt += nonzero(arow[p])
				}
				q := 0
				for ; q+4 <= cnt; q += 4 {
					p0, p1, p2, p3 := nz[q], nz[q+1], nz[q+2], nz[q+3]
					axpy4(orow,
						b[p0*n+jb:p0*n+jEnd], b[p1*n+jb:p1*n+jEnd],
						b[p2*n+jb:p2*n+jEnd], b[p3*n+jb:p3*n+jEnd],
						arow[p0], arow[p1], arow[p2], arow[p3])
				}
				for ; q < cnt; q++ {
					p := nz[q]
					axpyPanel(orow, b[p*n+jb:p*n+jEnd], arow[p])
				}
			}
		}
	}
}

// nonzero returns 1 when v != 0 and 0 when v is ±0, without a branch:
// v != 0 (NaN included) exactly when a bit other than the sign is set, and
// x | -x has its top bit set exactly when x is nonzero.
func nonzero(v float64) int {
	x := math.Float64bits(v) &^ (1 << 63)
	return int((x | -x) >> 63)
}

// MatMulTransAInto computes aᵀ·b into dst, which must have shape (m, n).
// dst is fully overwritten. Steady-state calls perform zero heap
// allocations.
func MatMulTransAInto(dst, a, b *Tensor) {
	k, m, n := checkMatMulTransA(a, b)
	checkDst("MatMulTransAInto", dst, m, n)
	dst.Zero()
	if w := WorkersFor(m, m*n*k); w > 1 {
		Shard(m, w, func(lo, hi int) {
			matMulTransARows(dst.data, a.data, b.data, k, m, n, lo, hi)
		})
	} else {
		matMulTransARows(dst.data, a.data, b.data, k, m, n, 0, m)
	}
}

// matMulTransARows computes output rows [lo, hi) of aᵀ·b, tiling the
// column dimension so the touched output panel stays cache-resident across
// the full p sweep. p advances four at a time: a row whose four a[p.., i]
// are all nonzero takes one axpy4, any other takes one axpyPanel per
// nonzero entry, in order. Ascending-p accumulation and the zero-skip
// match the naive pkj kernel exactly.
func matMulTransARows(dst, a, b []float64, k, m, n, lo, hi int) {
	for jb := 0; jb < n; jb += blockN {
		jEnd := min(jb+blockN, n)
		p := 0
		for ; p+4 <= k; p += 4 {
			b0, b1 := b[p*n+jb:p*n+jEnd], b[(p+1)*n+jb:(p+1)*n+jEnd]
			b2, b3 := b[(p+2)*n+jb:(p+2)*n+jEnd], b[(p+3)*n+jb:(p+3)*n+jEnd]
			for i := lo; i < hi; i++ {
				a0, a1, a2, a3 := a[p*m+i], a[(p+1)*m+i], a[(p+2)*m+i], a[(p+3)*m+i]
				orow := dst[i*n+jb : i*n+jEnd]
				if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
					axpy4(orow, b0, b1, b2, b3, a0, a1, a2, a3)
					continue
				}
				if a0 != 0 {
					axpyPanel(orow, b0, a0)
				}
				if a1 != 0 {
					axpyPanel(orow, b1, a1)
				}
				if a2 != 0 {
					axpyPanel(orow, b2, a2)
				}
				if a3 != 0 {
					axpyPanel(orow, b3, a3)
				}
			}
		}
		for ; p < k; p++ {
			arow := a[p*m+lo : p*m+hi]
			brow := b[p*n+jb : p*n+jEnd]
			for ii, av := range arow {
				if av == 0 {
					continue
				}
				axpyPanel(dst[(lo+ii)*n+jb:(lo+ii)*n+jEnd], brow, av)
			}
		}
	}
}

// MatMulTransBInto computes a·bᵀ into dst, which must have shape (m, n).
// dst is fully overwritten. Steady-state calls perform zero heap
// allocations.
func MatMulTransBInto(dst, a, b *Tensor) {
	m, k, n := checkMatMulTransB(a, b)
	checkDst("MatMulTransBInto", dst, m, n)
	dst.Zero()
	if w := WorkersFor(m, m*n*k); w > 1 {
		Shard(m, w, func(lo, hi int) {
			matMulTransBRows(dst.data, a.data, b.data, k, n, lo, hi)
		})
	} else {
		matMulTransBRows(dst.data, a.data, b.data, k, n, 0, m)
	}
}

// matMulTransBRows computes output rows [lo, hi) of a·bᵀ with k-dimension
// tiling: each output element accumulates its dot product across k-blocks
// in ascending-p order starting from the zeroed destination — the same
// addition chain as the naive per-element dot product. Output columns go
// four at a time through dot4, whose four independent chains overlap the
// add latency a single chain waits on; the last 0–3 columns run alone.
func matMulTransBRows(dst, a, b []float64, k, n, lo, hi int) {
	for jb := 0; jb < n; jb += blockN {
		jEnd := min(jb+blockN, n)
		for kb := 0; kb < k; kb += blockK {
			kEnd := min(kb+blockK, k)
			for i := lo; i < hi; i++ {
				arow := a[i*k+kb : i*k+kEnd]
				orow := dst[i*n : i*n+jEnd]
				j := jb
				for ; j+4 <= jEnd; j += 4 {
					r := j*k + kb // row j of b, at this k-block
					orow[j], orow[j+1], orow[j+2], orow[j+3] = dot4(arow,
						b[r:r+kEnd-kb], b[r+k:r+k+kEnd-kb], b[r+2*k:r+2*k+kEnd-kb], b[r+3*k:r+3*k+kEnd-kb],
						orow[j], orow[j+1], orow[j+2], orow[j+3])
				}
				for ; j < jEnd; j++ {
					// The [:len(arow)] reslice lets the compiler drop the
					// brow[p] bounds check from the dot-product loop.
					brow := b[j*k+kb : j*k+kEnd][:len(arow)]
					s := orow[j]
					for p, av := range arow {
						s += av * brow[p]
					}
					orow[j] = s
				}
			}
		}
	}
}

// dot4 continues four dot products of arow — with b0, b1, b2 and b3 — from
// the running sums s0…s3 and returns them. Each sum takes its terms in
// ascending p with every product and sum rounded on its own: four separate
// chains interleaved, never one chain split.
//
//go:noinline
func dot4(arow, b0, b1, b2, b3 []float64, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	n := len(arow)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for p, av := range arow {
		s0 += av * b0[p]
		s1 += av * b1[p]
		s2 += av * b2[p]
		s3 += av * b3[p]
	}
	return s0, s1, s2, s3
}

// checkMatMul validates a·b operands and returns (m, k, n).
func checkMatMul(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	m, k = a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch: %v x %v", a.shape, b.shape))
	}
	return m, k, n
}

// checkMatMulTransA validates aᵀ·b operands and returns (k, m, n).
func checkMatMulTransA(a, b *Tensor) (k, m, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransA needs rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	k, m = a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA dimension mismatch: %vᵀ x %v", a.shape, b.shape))
	}
	return k, m, n
}

// checkMatMulTransB validates a·bᵀ operands and returns (m, k, n).
func checkMatMulTransB(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransB needs rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	m, k = a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB dimension mismatch: %v x %vᵀ", a.shape, b.shape))
	}
	return m, k, n
}

// checkDst validates an Into destination shape.
func checkDst(op string, dst *Tensor, m, n int) {
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination shape %v, want (%d, %d)", op, dst.shape, m, n))
	}
}
