package tensor

import "fmt"

// AddInPlace sets t += u elementwise and returns t.
func (t *Tensor) AddInPlace(u *Tensor) *Tensor {
	t.checkSameShape("AddInPlace", u)
	for i, v := range u.data {
		t.data[i] += v
	}
	return t
}

// AXPY sets t += a·u (the BLAS axpy update) and returns t. It runs the
// matmul kernels' axpyPanel, so each element is t[i] + a·u[i], rounded
// as the scalar loop rounds it.
func (t *Tensor) AXPY(a float64, u *Tensor) *Tensor {
	t.checkSameShape("AXPY", u)
	axpyPanel(t.data, u.data, a)
	return t
}

// AddColSumsInto treats t as a (rows, cols) matrix and adds its per-column
// sums into dst (length cols). The allocation-free form of ColSums for
// gradient accumulation.
func (t *Tensor) AddColSumsInto(dst *Tensor) {
	checkAddColSumsInto(t, dst)
	rows, cols := t.shape[0], t.shape[1]
	for r := 0; r < rows; r++ {
		row := t.data[r*cols : (r+1)*cols]
		for c, v := range row {
			dst.data[c] += v
		}
	}
}

// checkAddColSumsInto validates AddColSumsInto operands.
func checkAddColSumsInto(t, dst *Tensor) {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: AddColSumsInto needs rank 2, got shape %v", t.shape))
	}
	if dst.Size() != t.shape[1] {
		panic(fmt.Sprintf("tensor: AddColSumsInto destination size %d != cols %d", dst.Size(), t.shape[1]))
	}
}

// AddRowVector treats t as a (rows, cols) matrix and adds v (length cols)
// to every row in place, returning t. This is the bias-broadcast update.
func (t *Tensor) AddRowVector(v *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: AddRowVector needs rank 2, got shape %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	if v.Size() != cols {
		panic(fmt.Sprintf("tensor: AddRowVector vector size %d != cols %d", v.Size(), cols))
	}
	for r := 0; r < rows; r++ {
		row := t.data[r*cols : (r+1)*cols]
		for c := range row {
			row[c] += v.data[c]
		}
	}
	return t
}
