package tensor_test

import (
	"fmt"

	"helcfl/internal/tensor"
)

func ExampleMatMulInto() {
	a := tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := tensor.FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	dst := tensor.New(2, 2)
	tensor.MatMulInto(dst, a, b)
	fmt.Println(dst)
	// Output:
	// Tensor[2 2][19 22 43 50]
}

// Im2ColBatchInto lowers convolution to matrix multiplication: each output
// column is one receptive field.
func ExampleIm2ColBatchInto() {
	img := tensor.FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3) // a batch of one 1-channel 3x3 image
	cols := tensor.New(4, 4)
	tensor.Im2ColBatchInto(cols, img, 2, 2, 1, 0)
	fmt.Println(cols.Shape())
	fmt.Println(cols.Data()[:4]) // first row: top-left pixel of each patch
	// Output:
	// [4 4]
	// [1 2 4 5]
}
