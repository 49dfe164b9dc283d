package wireless

import (
	"fmt"
	"math"
)

// Structure-of-arrays forms of the Eq. (6)–(8) link models: one pass over
// parallel txPower/gain slices (device.Fleet columns) instead of Q scalar
// calls. Each kernel evaluates exactly the scalar method's expression per
// index, so results are bit-identical to the loop it replaces — the
// differential tests in soa_test.go pin this.

// UploadRateInto fills dst[i] = R_i = Z·log2(1 + p_i·h_i² / N0) (Eq. 6).
// dst, txPower, and gain must have equal length.
func (c Channel) UploadRateInto(dst, txPower, gain []float64) {
	checkSoALens(len(dst), len(txPower), len(gain))
	for i := range dst {
		p, h := txPower[i], gain[i]
		if p <= 0 || h <= 0 {
			panic(fmt.Sprintf("wireless: non-positive power %g or gain %g", p, h))
		}
		dst[i] = c.BandwidthHz * math.Log2(1+p*h*h/c.NoisePower)
	}
}

// UploadDelayInto fills dst[i] = T_i^com = C_model / R_i (Eq. 7).
func (c Channel) UploadDelayInto(dst []float64, modelBits float64, txPower, gain []float64) {
	if modelBits <= 0 {
		panic(fmt.Sprintf("wireless: non-positive payload %g bits", modelBits))
	}
	c.UploadRateInto(dst, txPower, gain)
	for i := range dst {
		dst[i] = modelBits / dst[i]
	}
}

func checkSoALens(d, p, g int) {
	if d != p || d != g {
		panic(fmt.Sprintf("wireless: ragged SoA kernel inputs (dst %d, txPower %d, gain %d)", d, p, g))
	}
}
