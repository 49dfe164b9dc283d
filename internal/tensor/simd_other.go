//go:build !amd64

package tensor

// Off amd64 the Go loops in axpy4 and axpyPanel do all the work; the
// stubs below are never called.
const useAVX = false

func axpy4AVX(out, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {}

func axpyPanelAVX(out, brow []float64, av float64) {}
