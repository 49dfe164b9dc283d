package device

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func sample() *Device {
	return &Device{
		ID: 1, FMin: 0.3e9, FMax: 1.5e9,
		CyclesPerSample: 1e7, Kappa: 2e-28,
		TxPower: 0.2, ChannelGain: 1.0, NumSamples: 500,
	}
}

func TestComputeDelayEq4(t *testing.T) {
	d := sample()
	// T = π|D|/f = 1e7·500 / 1e9 = 5 s.
	if got := d.ComputeDelay(1e9); math.Abs(got-5) > 1e-12 {
		t.Fatalf("ComputeDelay = %g, want 5", got)
	}
	if got := d.ComputeDelayAtMax(); math.Abs(got-5e9/1.5e9) > 1e-9 {
		t.Fatalf("ComputeDelayAtMax = %g", got)
	}
}

func TestComputeEnergyEq5(t *testing.T) {
	d := sample()
	// E = (α/2)·π|D|·f² = 1e-28·5e9·1e18 = 0.5 J at 1 GHz.
	if got := d.ComputeEnergy(1e9); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("ComputeEnergy = %g, want 0.5", got)
	}
}

func TestEnergyQuadraticInFrequency(t *testing.T) {
	d := sample()
	e1 := d.ComputeEnergy(0.5e9)
	e2 := d.ComputeEnergy(1.0e9)
	if math.Abs(e2/e1-4) > 1e-9 {
		t.Fatalf("doubling f must quadruple energy: ratio = %g", e2/e1)
	}
}

func TestClampFreq(t *testing.T) {
	d := sample()
	if got := d.ClampFreq(0.1e9); got != d.FMin {
		t.Fatalf("clamp below = %g", got)
	}
	if got := d.ClampFreq(9e9); got != d.FMax {
		t.Fatalf("clamp above = %g", got)
	}
	if got := d.ClampFreq(1e9); got != 1e9 {
		t.Fatalf("clamp inside = %g", got)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	good := sample()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Device){
		"negative fmin":     func(d *Device) { d.FMin = -1 },
		"fmin above fmax":   func(d *Device) { d.FMin = 2e9 },
		"zero cycles":       func(d *Device) { d.CyclesPerSample = 0 },
		"zero kappa":        func(d *Device) { d.Kappa = 0 },
		"zero power":        func(d *Device) { d.TxPower = 0 },
		"zero channel gain": func(d *Device) { d.ChannelGain = 0 },
	} {
		d := sample()
		mutate(d)
		if err := d.Validate(); err == nil {
			t.Fatalf("%s: Validate must fail", name)
		}
	}
}

func TestComputeDelayZeroFreqPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero frequency")
		}
	}()
	sample().ComputeDelay(0)
}

func TestNewCatalogPaperSetting(t *testing.T) {
	cfg := DefaultCatalogConfig()
	devs := NewCatalog(cfg, rand.New(rand.NewSource(1)))
	if len(devs) != 100 {
		t.Fatalf("catalog size = %d, want 100", len(devs))
	}
	for _, d := range devs {
		if d.NumSamples != 0 {
			t.Fatal("catalog devices start with no data")
		}
		d.NumSamples = 1 // satisfy Validate's implicit use
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		if d.FMax < cfg.FMin || d.FMax > cfg.FMaxHigh {
			t.Fatalf("device %d FMax %g outside range", d.ID, d.FMax)
		}
		if d.FMin != cfg.FMin {
			t.Fatalf("device %d FMin %g, want %g", d.ID, d.FMin, cfg.FMin)
		}
	}
}

func TestNewCatalogHeterogeneous(t *testing.T) {
	devs := NewCatalog(DefaultCatalogConfig(), rand.New(rand.NewSource(2)))
	lo, hi := devs[0].FMax, devs[0].FMax
	for _, d := range devs {
		if d.FMax < lo {
			lo = d.FMax
		}
		if d.FMax > hi {
			hi = d.FMax
		}
	}
	if hi/lo < 2 {
		t.Fatalf("fleet not heterogeneous enough: FMax spread %g–%g", lo, hi)
	}
}

func TestNewCatalogDeterministic(t *testing.T) {
	a := NewCatalog(DefaultCatalogConfig(), rand.New(rand.NewSource(3)))
	b := NewCatalog(DefaultCatalogConfig(), rand.New(rand.NewSource(3)))
	for i := range a {
		if a[i].FMax != b[i].FMax || a[i].ChannelGain != b[i].ChannelGain {
			t.Fatal("same seed must give the same catalog")
		}
	}
}

// Property: for any valid frequency, slowing down always saves energy and
// costs delay — the trade-off Algorithm 3 exploits.
func TestSlowerIsCheaperQuick(t *testing.T) {
	d := sample()
	f := func(a, b float64) bool {
		fa := d.FMin + math.Mod(math.Abs(a), d.FMax-d.FMin)
		fb := d.FMin + math.Mod(math.Abs(b), d.FMax-d.FMin)
		if fa > fb {
			fa, fb = fb, fa
		}
		if fb-fa < 1 { // degenerate draw
			fb = fa + 1e6
		}
		return d.ComputeEnergy(fa) <= d.ComputeEnergy(fb) &&
			d.ComputeDelay(fa) >= d.ComputeDelay(fb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
