package wireless

import (
	"math/rand"
	"testing"
)

// TestSoAKernelsMatchScalar pins the SoA kernels bit-identical to the
// scalar Eq. (6)–(8) methods across random channels and link parameters.
func TestSoAKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		ch := Channel{BandwidthHz: 1e5 + 1e7*rng.Float64(), NoisePower: 0.1 + 3*rng.Float64()}
		bits := 1e4 + 1e7*rng.Float64()
		n := 1 + rng.Intn(300)
		p := make([]float64, n)
		g := make([]float64, n)
		for i := range p {
			p[i] = 0.05 + rng.Float64()
			g[i] = 0.2 + 2*rng.Float64()
		}
		rate := make([]float64, n)
		delay := make([]float64, n)
		ch.UploadRateInto(rate, p, g)
		ch.UploadDelayInto(delay, bits, p, g)
		for i := range p {
			if rate[i] != ch.UploadRate(p[i], g[i]) {
				t.Fatalf("rate[%d] = %v, scalar = %v", i, rate[i], ch.UploadRate(p[i], g[i]))
			}
			if delay[i] != ch.UploadDelay(bits, p[i], g[i]) {
				t.Fatalf("delay[%d] = %v, scalar = %v", i, delay[i], ch.UploadDelay(bits, p[i], g[i]))
			}
		}
	}
}

func TestSoAKernelPanics(t *testing.T) {
	ch := DefaultChannel()
	mustPanic(t, "ragged", func() { ch.UploadRateInto(make([]float64, 2), make([]float64, 3), make([]float64, 2)) })
	mustPanic(t, "bad payload", func() { ch.UploadDelayInto(make([]float64, 1), 0, []float64{0.2}, []float64{1}) })
	mustPanic(t, "bad gain", func() { ch.UploadRateInto(make([]float64, 1), []float64{0.2}, []float64{0}) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}
