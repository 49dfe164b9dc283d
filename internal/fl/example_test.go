package fl_test

import (
	"fmt"

	"helcfl/internal/fl"
)

// Eq. (18): FedAvg weights each upload by its dataset size.
func ExampleFedAvgInto() {
	uploads := [][]float64{
		{1.0, 0.0}, // user with 10 samples
		{0.0, 1.0}, // user with 30 samples
	}
	avg := make([]float64, 2)
	fl.FedAvgInto(avg, uploads, []int{10, 30})
	fmt.Printf("%.2f %.2f\n", avg[0], avg[1])
	// Output:
	// 0.25 0.75
}
