package nn

import (
	"fmt"

	"helcfl/internal/tensor"
)

// MaxPool2D is a 2-D max pooling layer over (B, C, H, W) batches.
type MaxPool2D struct {
	K, Stride int

	argmax  []int // flat input index chosen for each output element
	inShape []int

	// Scratch reused across steps (see scratch.go).
	out, dx *tensor.Tensor
}

// NewMaxPool2D returns a max-pool layer with a k×k window and the given
// stride.
func NewMaxPool2D(k, stride int) *MaxPool2D {
	if k <= 0 || stride <= 0 {
		panic("nn: MaxPool2D kernel and stride must be positive")
	}
	return &MaxPool2D{K: k, Stride: stride}
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return fmt.Sprintf("MaxPool2D(%dx%d, s%d)", m.K, m.K, m.Stride) }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D forward shape %v, want rank 4", x.Shape()))
	}
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh := tensor.ConvOutSize(h, m.K, m.Stride, 0)
	ow := tensor.ConvOutSize(w, m.K, m.Stride, 0)
	m.inShape = append(m.inShape[:0], b, c, h, w)
	m.out = ensure4(m.out, b, c, oh, ow)
	if cap(m.argmax) < m.out.Size() {
		m.argmax = make([]int, m.out.Size())
	}
	m.argmax = m.argmax[:m.out.Size()]
	xd, od := x.Data(), m.out.Data()
	oi := 0
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			plane := (bi*c + ci) * h * w
			for i := 0; i < oh; i++ {
				for j := 0; j < ow; j++ {
					best := -1
					bestV := 0.0
					for ki := 0; ki < m.K; ki++ {
						ii := i*m.Stride + ki
						if ii >= h {
							break
						}
						for kj := 0; kj < m.K; kj++ {
							jj := j*m.Stride + kj
							if jj >= w {
								break
							}
							idx := plane + ii*w + jj
							if best == -1 || xd[idx] > bestV {
								best, bestV = idx, xd[idx]
							}
						}
					}
					od[oi] = bestV
					m.argmax[oi] = best
					oi++
				}
			}
		}
	}
	return m.out
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if m.argmax == nil {
		panic("nn: MaxPool2D backward before forward")
	}
	m.dx = ensureShape(m.dx, m.inShape)
	m.dx.Zero()
	dd, dxd := dout.Data(), m.dx.Data()
	for oi, idx := range m.argmax {
		dxd[idx] += dd[oi]
	}
	return m.dx
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (m *MaxPool2D) Grads() []*tensor.Tensor { return nil }

// Clone implements Layer.
func (m *MaxPool2D) Clone() Layer { return &MaxPool2D{K: m.K, Stride: m.Stride} }

// GlobalAvgPool reduces (B, C, H, W) to (B, C) by spatial averaging, the
// SqueezeNet classifier head.
type GlobalAvgPool struct {
	inShape []int

	// Scratch reused across steps (see scratch.go).
	out, dx *tensor.Tensor
}

// NewGlobalAvgPool returns a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return "GlobalAvgPool" }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool forward shape %v, want rank 4", x.Shape()))
	}
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	g.inShape = append(g.inShape[:0], b, c, h, w)
	g.out = ensure2(g.out, b, c)
	xd, od := x.Data(), g.out.Data()
	inv := 1.0 / float64(h*w)
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			plane := xd[(bi*c+ci)*h*w : (bi*c+ci+1)*h*w]
			s := 0.0
			for _, v := range plane {
				s += v
			}
			od[bi*c+ci] = s * inv
		}
	}
	return g.out
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if g.inShape == nil {
		panic("nn: GlobalAvgPool backward before forward")
	}
	b, c, h, w := g.inShape[0], g.inShape[1], g.inShape[2], g.inShape[3]
	g.dx = ensureShape(g.dx, g.inShape)
	inv := 1.0 / float64(h*w)
	dd, dxd := dout.Data(), g.dx.Data()
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			gv := dd[bi*c+ci] * inv
			plane := dxd[(bi*c+ci)*h*w : (bi*c+ci+1)*h*w]
			for i := range plane {
				plane[i] = gv
			}
		}
	}
	return g.dx
}

// Params implements Layer.
func (g *GlobalAvgPool) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (g *GlobalAvgPool) Grads() []*tensor.Tensor { return nil }

// Clone implements Layer.
func (g *GlobalAvgPool) Clone() Layer { return &GlobalAvgPool{} }
