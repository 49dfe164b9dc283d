package nn

import (
	"fmt"
	"math/rand"

	"helcfl/internal/tensor"
)

// Conv2D is a 2-D convolution over (B, C, H, W) batches. The whole batch is
// lowered to one im2col matrix of shape (InC·KH·KW, B·OH·OW) so the forward
// pass is a single matmul against the (OutC, InC·KH·KW) weights, and the
// backward pass is two matmuls plus a per-sample col2im scatter.
type Conv2D struct {
	InC, OutC   int
	KH, KW      int
	Stride, Pad int

	w, b   *tensor.Tensor
	dw, db *tensor.Tensor

	// Cached state from the last forward pass.
	cols       *tensor.Tensor // (InC·KH·KW, B·positions)
	batch      int
	inH, inW   int
	outH, outW int

	// Scratch reused across steps (see scratch.go).
	mega, out            *tensor.Tensor
	dyMega, dcols, dwTmp *tensor.Tensor
	dx                   *tensor.Tensor
}

// NewConv2D returns a Conv2D layer with He-normal weights and zero bias.
func NewConv2D(inC, outC, kh, kw, stride, pad int, rng *rand.Rand) *Conv2D {
	if stride <= 0 {
		panic("nn: Conv2D stride must be positive")
	}
	fanIn := inC * kh * kw
	return &Conv2D{
		InC: inC, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad,
		w:  tensor.New(outC, fanIn).FillHe(rng, fanIn),
		b:  tensor.New(outC),
		dw: tensor.New(outC, fanIn),
		db: tensor.New(outC),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("Conv2D(%d→%d, %dx%d, s%d, p%d)", c.InC, c.OutC, c.KH, c.KW, c.Stride, c.Pad)
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: Conv2D forward shape %v, want (B, %d, H, W)", x.Shape(), c.InC))
	}
	b, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	c.batch, c.inH, c.inW = b, h, w
	c.outH = tensor.ConvOutSize(h, c.KH, c.Stride, c.Pad)
	c.outW = tensor.ConvOutSize(w, c.KW, c.Stride, c.Pad)
	positions := c.outH * c.outW
	ckk := c.InC * c.KH * c.KW

	// Lower the whole batch into one column matrix, sample-major columns;
	// the batch dimension shards across goroutines for large inputs.
	c.cols = ensure2(c.cols, ckk, b*positions)
	tensor.Im2ColBatchInto(c.cols, x, c.KH, c.KW, c.Stride, c.Pad)

	// One matmul for the whole batch: (OutC, ckk) × (ckk, B·positions).
	c.mega = ensure2(c.mega, c.OutC, b*positions)
	tensor.MatMulInto(c.mega, c.w, c.cols)

	// Reorder (OutC, B·positions) → (B, OutC, outH, outW) and add bias.
	c.out = ensure4(c.out, b, c.OutC, c.outH, c.outW)
	md, od, bd := c.mega.Data(), c.out.Data(), c.b.Data()
	for oc := 0; oc < c.OutC; oc++ {
		bias := bd[oc]
		row := md[oc*b*positions : (oc+1)*b*positions]
		for i := 0; i < b; i++ {
			dst := od[(i*c.OutC+oc)*positions : (i*c.OutC+oc+1)*positions]
			src := row[i*positions : (i+1)*positions]
			for p := range dst {
				dst[p] = src[p] + bias
			}
		}
	}
	return c.out
}

// Backward implements Layer.
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(dout)
	b := c.batch
	positions := c.outH * c.outW
	ckk := c.InC * c.KH * c.KW

	// dcols = Wᵀ·dy, one matmul for the batch, then scatter dcols back per
	// sample; samples shard across goroutines for large batches.
	c.dcols = ensure2(c.dcols, ckk, b*positions)
	tensor.MatMulTransAInto(c.dcols, c.w, c.dyMega)
	c.dx = ensure4(c.dx, b, c.InC, c.inH, c.inW)
	tensor.Col2ImBatchInto(c.dx, c.dcols, b, c.InC, c.inH, c.inW, c.KH, c.KW, c.Stride, c.Pad)
	return c.dx
}

// backwardParams reorders dout into c.dyMega and accumulates dW += dy·colsᵀ
// and db: the parameter half of Backward, all a first layer needs.
func (c *Conv2D) backwardParams(dout *tensor.Tensor) {
	if c.cols == nil {
		panic("nn: Conv2D backward before forward")
	}
	b := c.batch
	positions := c.outH * c.outW
	ckk := c.InC * c.KH * c.KW

	// Reorder dout (B, OutC, positions) → (OutC, B·positions).
	c.dyMega = ensure2(c.dyMega, c.OutC, b*positions)
	dd, myd := dout.Data(), c.dyMega.Data()
	dbd := c.db.Data()
	for oc := 0; oc < c.OutC; oc++ {
		row := myd[oc*b*positions : (oc+1)*b*positions]
		sum := 0.0
		for i := 0; i < b; i++ {
			src := dd[(i*c.OutC+oc)*positions : (i*c.OutC+oc+1)*positions]
			copy(row[i*positions:(i+1)*positions], src)
			for _, v := range src {
				sum += v
			}
		}
		dbd[oc] += sum
	}

	c.dwTmp = ensure2(c.dwTmp, c.OutC, ckk)
	tensor.MatMulTransBInto(c.dwTmp, c.dyMega, c.cols)
	c.dw.AddInPlace(c.dwTmp)
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.w, c.b} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.dw, c.db} }

// Clone implements Layer.
func (c *Conv2D) Clone() Layer {
	return &Conv2D{
		InC: c.InC, OutC: c.OutC, KH: c.KH, KW: c.KW, Stride: c.Stride, Pad: c.Pad,
		w: c.w.Clone(), b: c.b.Clone(), dw: c.dw.Clone(), db: c.db.Clone(),
	}
}
