package tensor

import "fmt"

// Test fixtures and oracles: element access, comparisons and reductions the
// product never calls, kept for the tests that check kernels against them.

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx...)] }

// AllClose reports whether t and u have the same shape and every pair of
// elements differs by at most tol in absolute value.
func (t *Tensor) AllClose(u *Tensor, tol float64) bool {
	if !t.SameShape(u) {
		return false
	}
	for i := range t.data {
		d := t.data[i] - u.data[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}

// Fill sets every element to v in place.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements. It panics on an empty
// tensor.
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		panic("tensor: Mean of empty tensor")
	}
	return t.Sum() / float64(len(t.data))
}

// Dot returns the inner product of t and u viewed as flat vectors.
func (t *Tensor) Dot(u *Tensor) float64 {
	if len(t.data) != len(u.data) {
		panic(fmt.Sprintf("tensor: Dot size mismatch %d vs %d", len(t.data), len(u.data)))
	}
	s := 0.0
	for i, v := range t.data {
		s += v * u.data[i]
	}
	return s
}
