package tensor

// This file holds the original straight-loop matrix kernels as reference
// implementations. The tiled kernels in matmul.go are required to be
// bit-for-bit identical to these for every shape and every input — the
// differential tests (matmul_diff_test.go) and fuzz targets pin that — so
// any future kernel change that perturbs floating-point accumulation order
// fails loudly instead of silently drifting the experiment goldens.
//
// They live in a _test.go file because only this package's tests call
// them: an oracle is not part of the product.

// MatMulNaive is the reference a·b kernel: a cache-friendly ikj loop over
// contiguous rows, accumulating each output element in ascending-p order
// and skipping zero a-elements.
func MatMulNaive(a, b *Tensor) *Tensor {
	m, k, n := checkMatMul(a, b)
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.data[p*n : (p+1)*n]
			for j := range brow {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// MatMulTransANaive is the reference aᵀ·b kernel: a pkj loop accumulating
// each output element in ascending-p order and skipping zero a-elements.
func MatMulTransANaive(a, b *Tensor) *Tensor {
	k, m, n := checkMatMulTransA(a, b)
	out := New(m, n)
	for p := 0; p < k; p++ {
		arow := a.data[p*m : (p+1)*m]
		brow := b.data[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulTransBNaive is the reference a·bᵀ kernel: one sequential dot
// product per output element, accumulated in ascending-p order.
func MatMulTransBNaive(a, b *Tensor) *Tensor {
	m, k, n := checkMatMulTransB(a, b)
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.data[j*k : (j+1)*k]
			s := 0.0
			for p, av := range arow {
				s += av * brow[p]
			}
			orow[j] = s
		}
	}
	return out
}

// Im2ColNaive is the reference patch-unroll kernel; Im2Col and Im2ColInto
// must match it bitwise.
func Im2ColNaive(x *Tensor, kh, kw, stride, pad int) *Tensor {
	c, oh, ow := checkIm2Col(x, kh, kw, stride, pad)
	out := New(c*kh*kw, oh*ow)
	im2colFill(out.data, x, kh, kw, stride, pad, oh, ow)
	return out
}

// Col2ImNaive is the reference column-scatter adjoint; Col2Im and
// Col2ImInto must match it bitwise.
func Col2ImNaive(cols *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	checkCol2Im(cols, c, h, w, kh, kw, stride, pad)
	out := New(c, h, w)
	col2imScatter(out.data, cols, c, h, w, kh, kw, stride, pad)
	return out
}
