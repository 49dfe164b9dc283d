package tensor

import "fmt"

// This file holds the original straight-loop matrix and convolution
// kernels as reference implementations. The tiled kernels are required to be
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

// Im2ColNaive is the reference patch-unroll kernel, one element at a
// time; Im2ColBatchInto must match it bitwise for every sample.
func Im2ColNaive(x *Tensor, kh, kw, stride, pad int) *Tensor {
	c, h, w, oh, ow := checkIm2Col(x, kh, kw, stride, pad)
	out := New(c*kh*kw, oh*ow)
	for ch := 0; ch < c; ch++ {
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				row := (ch*kh+ki)*kw + kj
				for oi := 0; oi < oh; oi++ {
					for oj := 0; oj < ow; oj++ {
						ii, jj := oi*stride+ki-pad, oj*stride+kj-pad
						if ii >= 0 && ii < h && jj >= 0 && jj < w {
							out.data[row*oh*ow+oi*ow+oj] = x.data[(ch*h+ii)*w+jj]
						}
					}
				}
			}
		}
	}
	return out
}

// Col2ImNaive is the reference column-scatter adjoint, accumulating in
// (channel, ki, kj, oi, oj) order; Col2ImBatchInto must match it bitwise
// for every sample.
func Col2ImNaive(cols *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	if stride <= 0 {
		panic("tensor: Col2Im stride must be positive")
	}
	oh, ow := ConvOutSize(h, kh, stride, pad), ConvOutSize(w, kw, stride, pad)
	if cols.Rank() != 2 || cols.shape[0] != c*kh*kw || cols.shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: Col2Im shape %v inconsistent with (C,H,W)=(%d,%d,%d)", cols.shape, c, h, w))
	}
	out := New(c, h, w)
	for ch := 0; ch < c; ch++ {
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				row := (ch*kh+ki)*kw + kj
				for oi := 0; oi < oh; oi++ {
					for oj := 0; oj < ow; oj++ {
						ii, jj := oi*stride+ki-pad, oj*stride+kj-pad
						if ii >= 0 && ii < h && jj >= 0 && jj < w {
							out.data[(ch*h+ii)*w+jj] += cols.data[row*oh*ow+oi*ow+oj]
						}
					}
				}
			}
		}
	}
	return out
}

// checkIm2Col validates a single (C, H, W) image for patch unrolling and
// returns (c, h, w, oh, ow).
func checkIm2Col(x *Tensor, kh, kw, stride, pad int) (c, h, w, oh, ow int) {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("tensor: Im2Col needs rank-3 (C,H,W) input, got %v", x.shape))
	}
	if stride <= 0 {
		panic("tensor: Im2Col stride must be positive")
	}
	c, h, w = x.shape[0], x.shape[1], x.shape[2]
	oh, ow = ConvOutSize(h, kh, stride, pad), ConvOutSize(w, kw, stride, pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col produces empty output for input %v", x.shape))
	}
	return c, h, w, oh, ow
}

// transpose is the reference transpose of a rank-2 tensor.
func transpose(t *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: transpose needs rank 2, got shape %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := New(cols, rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out.data[c*rows+r] = t.data[r*cols+c]
		}
	}
	return out
}

// matMul, matMulTransA and matMulTransB are the tests' allocating
// shorthand for the Into kernels.
func matMul(a, b *Tensor) *Tensor {
	m, _, n := checkMatMul(a, b)
	out := New(m, n)
	MatMulInto(out, a, b)
	return out
}

func matMulTransA(a, b *Tensor) *Tensor {
	_, m, n := checkMatMulTransA(a, b)
	out := New(m, n)
	MatMulTransAInto(out, a, b)
	return out
}

func matMulTransB(a, b *Tensor) *Tensor {
	m, _, n := checkMatMulTransB(a, b)
	out := New(m, n)
	MatMulTransBInto(out, a, b)
	return out
}

// im2col and col2im run one (C, H, W) image through the batch kernels as a
// batch of one.
func im2col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	c, h, w, oh, ow := checkIm2Col(x, kh, kw, stride, pad)
	out := New(c*kh*kw, oh*ow)
	Im2ColBatchInto(out, x.Reshape(1, c, h, w), kh, kw, stride, pad)
	return out
}

func col2im(cols *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	out := New(1, c, h, w)
	Col2ImBatchInto(out, cols, 1, c, h, w, kh, kw, stride, pad)
	return out.Reshape(c, h, w)
}
