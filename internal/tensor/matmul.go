package tensor

import "fmt"

// Matrix-multiply kernels.
//
// All three products (a·b, aᵀ·b, a·bᵀ) compute into a caller-owned
// destination with zero heap allocations (MatMul*Into) — the training hot
// path uses them through the layer scratch buffers in internal/nn. The
// straight-loop reference kernels (MatMul*Naive) live with the tests, in
// matmul_naive_test.go.
//
// The compute kernels are blocked/tiled for cache locality and, for large
// products, row-sharded across goroutines. Both transformations preserve
// the exact floating-point accumulation order of the naive kernels — tiles
// advance the reduction index p monotonically per output element, and
// parallel shards own disjoint output rows — so every form is bit-for-bit
// identical to its reference. The differential and fuzz tests in this
// package enforce that identity; do not change loop order, zero-skip
// conditions, or accumulation structure without them.

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
//
//helcfl:noalloc
//go:noinline
func axpyPanel(out, brow []float64, av float64) {
	out = out[:len(brow)]
	for j, bv := range brow {
		out[j] += av * bv
	}
}

// matMulRows computes output rows [lo, hi) of a·b with k/n tiling. For a
// fixed output element, contributions arrive in ascending-p order with the
// same zero-skip as the naive ikj kernel, so the result is bit-identical.
//
//helcfl:noalloc
func matMulRows(dst, a, b []float64, k, n, lo, hi int) {
	for kb := 0; kb < k; kb += blockK {
		kEnd := kb + blockK
		if kEnd > k {
			kEnd = k
		}
		for jb := 0; jb < n; jb += blockN {
			jEnd := jb + blockN
			if jEnd > n {
				jEnd = n
			}
			for i := lo; i < hi; i++ {
				arow := a[i*k+kb : i*k+kEnd]
				orow := dst[i*n+jb : i*n+jEnd]
				for pi, av := range arow {
					if av == 0 {
						continue
					}
					axpyPanel(orow, b[(kb+pi)*n+jb:(kb+pi)*n+jEnd], av)
				}
			}
		}
	}
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
// the full p sweep. Ascending-p accumulation and the zero-skip match the
// naive pkj kernel exactly.
//
//helcfl:noalloc
func matMulTransARows(dst, a, b []float64, k, m, n, lo, hi int) {
	for jb := 0; jb < n; jb += blockN {
		jEnd := jb + blockN
		if jEnd > n {
			jEnd = n
		}
		for p := 0; p < k; p++ {
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
// addition chain as the naive per-element dot product.
//
//helcfl:noalloc
func matMulTransBRows(dst, a, b []float64, k, n, lo, hi int) {
	for jb := 0; jb < n; jb += blockN {
		jEnd := jb + blockN
		if jEnd > n {
			jEnd = n
		}
		for kb := 0; kb < k; kb += blockK {
			kEnd := kb + blockK
			if kEnd > k {
				kEnd = k
			}
			for i := lo; i < hi; i++ {
				arow := a[i*k+kb : i*k+kEnd]
				orow := dst[i*n+jb : i*n+jEnd]
				for jj := range orow {
					// The [:len(arow)] reslice lets the compiler drop the
					// brow[p] bounds check from the dot-product loop.
					brow := b[(jb+jj)*k+kb : (jb+jj)*k+kEnd][:len(arow)]
					s := orow[jj]
					for p, av := range arow {
						s += av * brow[p]
					}
					orow[jj] = s
				}
			}
		}
	}
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
