package tensor

import "fmt"

// Im2ColBatchInto unrolls image patches into columns for
// convolution-as-matmul: each column is the flattened receptive field of
// one output position, padded positions contribute zeros, and
// oh = (H+2·pad-kh)/stride + 1 (ow likewise). It lowers a (B, C, H, W)
// batch into dst of shape (C·kh·kw, B·oh·ow) with sample-major columns:
// sample i occupies columns
// [i·oh·ow, (i+1)·oh·ow). dst is fully overwritten. Samples write disjoint
// column ranges, so the batch dimension shards across goroutines for large
// batches without affecting the result; steady-state serial calls perform
// zero heap allocations.
func Im2ColBatchInto(dst, x *Tensor, kh, kw, stride, pad int) {
	b, c, oh, ow := checkIm2ColBatch(x, kh, kw, stride, pad)
	ckk, ocols := c*kh*kw, oh*ow
	if dst.Rank() != 2 || dst.shape[0] != ckk || dst.shape[1] != b*ocols {
		panic(fmt.Sprintf("tensor: Im2ColBatchInto destination shape %v, want (%d, %d)", dst.shape, ckk, b*ocols))
	}
	dst.Zero()
	h, w := x.shape[2], x.shape[3]
	plane := c * h * w
	if workers := WorkersFor(b, b*ckk*ocols); workers > 1 {
		Shard(b, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				im2colFillStrided(dst.data, b*ocols, i*ocols, x.data[i*plane:(i+1)*plane], c, h, w, kh, kw, stride, pad, oh, ow)
			}
		})
	} else {
		for i := 0; i < b; i++ {
			im2colFillStrided(dst.data, b*ocols, i*ocols, x.data[i*plane:(i+1)*plane], c, h, w, kh, kw, stride, pad, oh, ow)
		}
	}
}

// checkIm2ColBatch validates Im2ColBatchInto input and returns
// (b, c, oh, ow).
func checkIm2ColBatch(x *Tensor, kh, kw, stride, pad int) (b, c, oh, ow int) {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Im2ColBatch needs rank-4 (B,C,H,W) input, got %v", x.shape))
	}
	if stride <= 0 {
		panic("tensor: Im2ColBatch stride must be positive")
	}
	b, c = x.shape[0], x.shape[1]
	h, w := x.shape[2], x.shape[3]
	oh = (h+2*pad-kh)/stride + 1
	ow = (w+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Im2ColBatch produces empty output for input %v kernel (%d,%d) stride %d pad %d", x.shape, kh, kw, stride, pad))
	}
	return b, c, oh, ow
}

// im2colFillStrided writes the patch-unroll of one (c, h, w) image xdata
// into out, where unroll row r starts at r·rowStride+colOff. out must be
// pre-zeroed over the touched region; every in-bounds position is stored
// exactly once, so the write order cannot affect the result. The stride
// form lets a whole batch lower into one matrix with disjoint per-sample
// column ranges.
func im2colFillStrided(out []float64, rowStride, colOff int, xdata []float64, c, h, w, kh, kw, stride, pad, oh, ow int) {
	for ch := 0; ch < c; ch++ {
		plane := xdata[ch*h*w : (ch+1)*h*w]
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				rowBase := ((ch*kh+ki)*kw+kj)*rowStride + colOff
				for oi := 0; oi < oh; oi++ {
					ii := oi*stride + ki - pad
					if ii < 0 || ii >= h {
						continue // zero padding: row already zero
					}
					src := plane[ii*w : (ii+1)*w]
					dst := out[rowBase+oi*ow : rowBase+(oi+1)*ow]
					for oj := 0; oj < ow; oj++ {
						jj := oj*stride + kj - pad
						if jj >= 0 && jj < w {
							dst[oj] = src[jj]
						}
					}
				}
			}
		}
	}
}

// col2imScatterStrided accumulates one sample's columns — unroll row r
// starting at r·rowStride+colOff of colsData — into out (len c·h·w, already
// zeroed) in the fixed (channel, ki, kj, oi, oj) order of the reference
// kernel, so overlapping receptive fields sum in a deterministic sequence.
func col2imScatterStrided(out, colsData []float64, rowStride, colOff, c, h, w, kh, kw, stride, pad, oh, ow int) {
	for ch := 0; ch < c; ch++ {
		plane := out[ch*h*w : (ch+1)*h*w]
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				rowBase := ((ch*kh+ki)*kw+kj)*rowStride + colOff
				for oi := 0; oi < oh; oi++ {
					ii := oi*stride + ki - pad
					if ii < 0 || ii >= h {
						continue
					}
					src := colsData[rowBase+oi*ow : rowBase+(oi+1)*ow]
					dst := plane[ii*w : (ii+1)*w]
					for oj := 0; oj < ow; oj++ {
						jj := oj*stride + kj - pad
						if jj >= 0 && jj < w {
							dst[jj] += src[oj]
						}
					}
				}
			}
		}
	}
}

// Col2ImBatchInto is the adjoint of Im2ColBatchInto — it propagates
// convolution gradients to the layer input: it scatters (accumulates) a
// (C·kh·kw, B·oh·ow) sample-major column matrix back into dst of shape
// (B, C, H, W). dst is fully overwritten. Samples touch disjoint image
// planes, so the batch dimension shards across goroutines for large batches
// without affecting the result; steady-state serial calls perform zero heap
// allocations.
func Col2ImBatchInto(dst, cols *Tensor, b, c, h, w, kh, kw, stride, pad int) {
	if stride <= 0 {
		panic("tensor: Col2ImBatch stride must be positive")
	}
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	ckk, ocols := c*kh*kw, oh*ow
	if cols.Rank() != 2 || cols.shape[0] != ckk || cols.shape[1] != b*ocols {
		panic(fmt.Sprintf("tensor: Col2ImBatch columns shape %v inconsistent with (B,C,H,W)=(%d,%d,%d,%d) kernel (%d,%d) stride %d pad %d",
			cols.shape, b, c, h, w, kh, kw, stride, pad))
	}
	if dst.Rank() != 4 || dst.shape[0] != b || dst.shape[1] != c || dst.shape[2] != h || dst.shape[3] != w {
		panic(fmt.Sprintf("tensor: Col2ImBatchInto destination shape %v, want (%d, %d, %d, %d)", dst.shape, b, c, h, w))
	}
	dst.Zero()
	plane := c * h * w
	if workers := WorkersFor(b, b*ckk*ocols); workers > 1 {
		Shard(b, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				col2imScatterStrided(dst.data[i*plane:(i+1)*plane], cols.data, b*ocols, i*ocols, c, h, w, kh, kw, stride, pad, oh, ow)
			}
		})
	} else {
		for i := 0; i < b; i++ {
			col2imScatterStrided(dst.data[i*plane:(i+1)*plane], cols.data, b*ocols, i*ocols, c, h, w, kh, kw, stride, pad, oh, ow)
		}
	}
}

// ConvOutSize returns the spatial output size for a convolution dimension.
func ConvOutSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}
