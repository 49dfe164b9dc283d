package experiments_test

import (
	"fmt"

	"helcfl/internal/experiments"
)

// Table I's speedup metric, (T_base/T_HELCFL − 1) × 100, at the paper's
// headline figure: HELCFL at 913 s against FedCS at 3424 s, with every
// other scheme missing the target.
func ExampleTableIBlock_Speedups() {
	blk := experiments.TableIBlock{
		Setting:  experiments.IID,
		Targets:  []float64{0.6},
		DelaySec: map[string][]float64{},
		Reached:  map[string][]bool{},
	}
	for _, s := range experiments.SchemeOrder {
		blk.DelaySec[s] = []float64{0}
		blk.Reached[s] = []bool{false}
	}
	blk.DelaySec["HELCFL"], blk.Reached["HELCFL"] = []float64{913}, []bool{true}
	blk.DelaySec["FedCS"], blk.Reached["FedCS"] = []float64{3424}, []bool{true}
	fmt.Printf("%.2f%%\n", blk.Speedups(0)["FedCS"])
	// Output:
	// 275.03%
}
