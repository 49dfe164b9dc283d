// Package tensor provides dense, row-major float64 tensors and the linear
// algebra primitives the neural-network substrate needs: elementwise
// arithmetic, matrix multiplication, reductions, and the batched
// im2col/col2im transforms, zero padding included, used by convolution
// layers.
//
// Tensors carry an explicit shape; all operations validate shapes eagerly and
// panic on mismatch, because a shape error is a programming bug, not a
// runtime condition a caller can recover from.
//
// The package is pure Go except for one assembly file: on amd64 CPUs with
// AVX, the two axpy loops under a·b, aᵀ·b and AXPY run four float64 lanes
// per instruction, with the same bits as the Go loops (see matmul.go).
package tensor

import (
	"fmt"
	"strings"
)

// Tensor is a dense, row-major tensor of float64 values.
//
// The zero value is an empty (rank-0, size-0) tensor; use New or one of the
// constructors for anything useful.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape. Every dimension
// must be positive. A call with no dimensions returns a scalar-like tensor
// holding a single value.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); the caller must not alias it afterwards unless that
// sharing is intended. len(data) must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Dim returns the length of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Data returns the backing slice in row-major order. Mutations are visible
// to the tensor; this is the intended fast path for kernels.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: append([]int(nil), t.shape...), data: make([]float64, len(t.data))}
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of the same data with a new shape. The element
// count must be unchanged. The returned tensor shares data with t.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// FitShape resizes t in place to the given shape, reusing its shape and
// data arrays, and reports whether their capacity allowed it; on false t is
// untouched. shape is copied, never retained. The contents after a
// successful fit are unspecified — callers overwrite. It is meant for
// scratch that owns its backing array (a tensor from New): fitting a
// FromSlice/Reshape view would grow it over storage it does not own.
func (t *Tensor) FitShape(shape []int) bool {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return false
		}
		n *= d
	}
	if cap(t.shape) < len(shape) || cap(t.data) < n {
		return false
	}
	t.shape = t.shape[:len(shape)]
	copy(t.shape, shape)
	t.data = t.data[:n]
	return true
}

// Fit2 is FitShape for (d0, d1). The fixed-rank forms exist because a
// variadic shape would allocate its slice on every hot-path call; the array
// here stays on the stack.
func (t *Tensor) Fit2(d0, d1 int) bool {
	shape := [2]int{d0, d1}
	return t.FitShape(shape[:])
}

// Fit4 is FitShape for (d0, d1, d2, d3).
func (t *Tensor) Fit4(d0, d1, d2, d3 int) bool {
	shape := [4]int{d0, d1, d2, d3}
	return t.FitShape(shape[:])
}

// offset converts a multi-index to a flat offset.
func (t *Tensor) offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx...)] = v }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

// Equal reports whether t and u have the same shape and identical elements.
func (t *Tensor) Equal(u *Tensor) bool {
	if !t.SameShape(u) {
		return false
	}
	for i := range t.data {
		if t.data[i] != u.data[i] {
			return false
		}
	}
	return true
}

// Zero sets every element to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// String renders a compact description, with full contents for small
// tensors and a summary for large ones.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 16 {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		fmt.Fprintf(&b, "[%g %g ... %g]", t.data[0], t.data[1], t.data[len(t.data)-1])
	}
	return b.String()
}

// checkSameShape panics unless all tensors share t's shape.
func (t *Tensor) checkSameShape(op string, us ...*Tensor) {
	for _, u := range us {
		if !t.SameShape(u) {
			panic(fmt.Sprintf("tensor: %s shape mismatch: %v vs %v", op, t.shape, u.shape))
		}
	}
}
