package device

import (
	"math/rand"
	"testing"
)

// snapToLevelsScan is the linear-scan reference of snapToLevels, verbatim
// from the pre-binary-search SnapFreq, so the differential test below has
// an independent oracle.
func snapToLevelsScan(levels []float64, f float64) float64 {
	if len(levels) == 0 {
		return f
	}
	for _, l := range levels {
		if l >= f-1e-9 {
			return l
		}
	}
	return levels[len(levels)-1]
}

// TestSnapFreqBinarySearchMatchesScan differentially tests the binary-search
// SnapFreq against the linear-scan reference across random level
// tables and requests, including requests landing exactly on, just below,
// and just above a level — the 1e-9 tolerance band.
func TestSnapFreqBinarySearchMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(12)
		d := &Device{FMin: 0.3e9, FMax: 0.3e9 + 1.7e9*rng.Float64()}
		if d.FMax < d.FMin+1 {
			d.FMax = d.FMin + 1
		}
		d.UniformLevels(n)
		probes := []float64{
			d.FMin, d.FMax, d.FMin - 1e8, d.FMax + 1e8,
			d.FMin + (d.FMax-d.FMin)*rng.Float64(),
		}
		for _, l := range d.Levels {
			probes = append(probes, l, l-1e-10, l+1e-10, l-1e-9, l+1e-9, l-2e-9, l+2e-9)
		}
		for _, f := range probes {
			got := d.SnapFreq(f)
			want := snapToLevelsScan(d.Levels, d.ClampFreq(f))
			if got != want {
				t.Fatalf("SnapFreq(%v) = %v, scan reference = %v (levels %v)", f, got, want, d.Levels)
			}
		}
	}
	// Continuous device: SnapFreq degenerates to ClampFreq in both forms.
	d := &Device{FMin: 1e9, FMax: 2e9}
	if got, want := d.SnapFreq(1.5e9), 1.5e9; got != want {
		t.Fatalf("continuous SnapFreq = %v, want %v", got, want)
	}
}

// TestFleetOfMatchesDevices round-trips a random catalog AoS → SoA → AoS
// and checks every field and every derived quantity agrees bitwise.
func TestFleetOfMatchesDevices(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	devs := NewCatalog(DefaultCatalogConfig(), rng)
	for q, d := range devs {
		d.NumSamples = 10 + q%7
		if q%3 == 0 {
			d.UniformLevels(4 + q%5)
		}
	}
	f := FleetOf(devs)
	if f.Len() != len(devs) {
		t.Fatalf("fleet Len = %d, want %d", f.Len(), len(devs))
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("fleet validate: %v", err)
	}
	for q, d := range devs {
		if f.FMin[q] != d.FMin || f.FMax[q] != d.FMax || f.TxPower[q] != d.TxPower ||
			f.ChannelGain[q] != d.ChannelGain || f.NumSamples[q] != d.NumSamples {
			t.Fatalf("device %d: SoA fields diverge from AoS", q)
		}
		if f.TotalCycles(q) != d.TotalCycles() {
			t.Fatalf("device %d: TotalCycles %v != %v", q, f.TotalCycles(q), d.TotalCycles())
		}
		fr := d.FMin + (d.FMax-d.FMin)*0.37
		if f.ComputeDelay(q, fr) != d.ComputeDelay(fr) {
			t.Fatalf("device %d: ComputeDelay diverges", q)
		}
		if f.ComputeDelayAtMax(q) != d.ComputeDelayAtMax() {
			t.Fatalf("device %d: ComputeDelayAtMax diverges", q)
		}
		if f.SnapFreq(q, fr*0.9) != d.SnapFreq(fr*0.9) {
			t.Fatalf("device %d: SnapFreq diverges", q)
		}
	}
	back := f.Devices()
	for q, d := range devs {
		b := back[q]
		if b.ID != q || b.FMax != d.FMax || b.NumSamples != d.NumSamples || len(b.Levels) != len(d.Levels) {
			t.Fatalf("device %d: AoS materialization diverges", q)
		}
	}
}

// TestNewFleetDeterministic pins NewFleet's key-derived generation: same
// (cfg, seed) twice is identical, a larger fleet extends a smaller one
// prefix-for-prefix (order independence), and different seeds differ.
func TestNewFleetDeterministic(t *testing.T) {
	cfg := DefaultCatalogConfig()
	cfg.Q = 5000
	cfg.SamplesLow, cfg.SamplesHigh = 20, 60
	a := NewFleet(cfg, 42)
	b := NewFleet(cfg, 42)
	if err := a.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	big := cfg
	big.Q = 12000
	c := NewFleet(big, 42)
	other := NewFleet(cfg, 43)
	diff := false
	for q := 0; q < cfg.Q; q++ {
		if a.FMax[q] != b.FMax[q] || a.ChannelGain[q] != b.ChannelGain[q] || a.NumSamples[q] != b.NumSamples[q] {
			t.Fatalf("device %d: same seed produced different fleets", q)
		}
		if a.FMax[q] != c.FMax[q] || a.ChannelGain[q] != c.ChannelGain[q] || a.NumSamples[q] != c.NumSamples[q] {
			t.Fatalf("device %d: fleet prefix depends on fleet size", q)
		}
		if a.FMax[q] != other.FMax[q] {
			diff = true
		}
		if a.FMax[q] < cfg.FMin || a.FMax[q] > cfg.FMaxHigh {
			t.Fatalf("device %d: FMax %v outside [%v, %v]", q, a.FMax[q], cfg.FMin, cfg.FMaxHigh)
		}
		if a.NumSamples[q] < cfg.SamplesLow || a.NumSamples[q] > cfg.SamplesHigh {
			t.Fatalf("device %d: NumSamples %d outside [%d, %d]", q, a.NumSamples[q], cfg.SamplesLow, cfg.SamplesHigh)
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical fleets")
	}
	// Without a samples range, NumSamples stays unset like NewCatalog.
	plain := NewFleet(DefaultCatalogConfig(), 42)
	for q := 0; q < plain.Len(); q++ {
		if plain.NumSamples[q] != 0 {
			t.Fatalf("device %d: NumSamples %d without a samples range", q, plain.NumSamples[q])
		}
	}
}

// BenchmarkFleetCatalog measures batched key-derived fleet generation at
// two scales (ISSUE 10 tooling gate).
func BenchmarkFleetCatalog(b *testing.B) {
	for _, q := range []int{1000, 100000} {
		cfg := DefaultCatalogConfig()
		cfg.Q = q
		cfg.SamplesLow, cfg.SamplesHigh = 20, 60
		b.Run(benchName(q), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewFleet(cfg, 1)
			}
		})
	}
}

func benchName(q int) string {
	switch {
	case q >= 1000000:
		return "Q1e6"
	case q >= 100000:
		return "Q1e5"
	default:
		return "Q1e3"
	}
}
