// Package device models the heterogeneous, DVFS-capable user equipment of
// the HELCFL system: per-device CPU frequency ranges, the cycle-accurate
// compute-delay model of Eq. (4), and the switched-capacitance energy model
// of Eq. (5).
package device

import (
	"fmt"
	"math/rand"
	"sort"
)

// Constants shared by the paper's experimental setting (Section VII-A).
const (
	// DefaultCyclesPerSample is π, the CPU cycles needed to process one data
	// sample (π = 1×10⁷ in the paper).
	DefaultCyclesPerSample = 1e7
	// DefaultKappa is α/2·2 — the effective switched capacitance α. The
	// paper prints α = 2×10²⁸, an obvious sign typo for the 2×10⁻²⁸ used by
	// its cited source (Tran et al.); see DESIGN.md.
	DefaultKappa = 2e-28
	// DefaultFMin is the common lowest CPU frequency, 0.3 GHz.
	DefaultFMin = 0.3e9
	// FMaxLow and FMaxHigh bound the sampled highest CPU frequencies,
	// "distributed at intervals (0.3, 2.0) GHz".
	FMaxLow  = 0.3e9
	FMaxHigh = 2.0e9
)

// Device is one DVFS-capable user device.
type Device struct {
	// ID indexes the device within the system (0-based).
	ID int
	// FMin and FMax bound the operating frequency in Hz (constraint (15)).
	FMin, FMax float64
	// CyclesPerSample is π in Eq. (4).
	CyclesPerSample float64
	// Kappa is the effective switched capacitance α in Eq. (5).
	Kappa float64
	// TxPower is the uplink transmission power p_q in watts.
	TxPower float64
	// ChannelGain is h_q, the (amplitude) channel gain toward the FLCC.
	ChannelGain float64
	// NumSamples is |D_q|, the local dataset size. Filled when data is
	// partitioned.
	NumSamples int
	// Levels, when non-empty, lists the discrete DVFS operating points
	// (ascending, within [FMin, FMax]). Real silicon exposes a handful of
	// P-states rather than a continuum; SnapFreq quantizes requests onto
	// them. Empty means continuously tunable (the paper's idealization).
	Levels []float64
}

// Validate reports configuration errors.
func (d *Device) Validate() error {
	switch {
	case d.FMin <= 0 || d.FMax <= 0:
		return fmt.Errorf("device %d: non-positive frequency bounds [%g, %g]", d.ID, d.FMin, d.FMax)
	case d.FMin > d.FMax:
		return fmt.Errorf("device %d: FMin %g above FMax %g", d.ID, d.FMin, d.FMax)
	case d.CyclesPerSample <= 0:
		return fmt.Errorf("device %d: non-positive cycles per sample %g", d.ID, d.CyclesPerSample)
	case d.Kappa <= 0:
		return fmt.Errorf("device %d: non-positive switched capacitance %g", d.ID, d.Kappa)
	case d.TxPower <= 0:
		return fmt.Errorf("device %d: non-positive transmit power %g", d.ID, d.TxPower)
	case d.ChannelGain <= 0:
		return fmt.Errorf("device %d: non-positive channel gain %g", d.ID, d.ChannelGain)
	}
	return nil
}

// ClampFreq projects f onto [FMin, FMax] (constraint (15)).
func (d *Device) ClampFreq(f float64) float64 {
	if f < d.FMin {
		return d.FMin
	}
	if f > d.FMax {
		return d.FMax
	}
	return f
}

// SnapFreq quantizes a requested frequency onto the device's discrete DVFS
// levels, choosing the smallest level ≥ f (so a deadline-driven request is
// never missed); requests above the top level return the top level. With
// no levels configured it is ClampFreq.
func (d *Device) SnapFreq(f float64) float64 {
	return snapToLevels(d.Levels, d.ClampFreq(f))
}

// snapToLevels returns the smallest level ≥ f−1e-9 (the 1 nHz tolerance
// absorbs ULP noise from Algorithm 3's chaining arithmetic), or the top
// level when f is above all of them. Levels are ascending, so binary search
// finds the same level the linear scan it replaced did; the differential
// test in fleet_test.go pins the equivalence against that scan, tolerance
// band included.
// Empty levels mean a continuously tunable device: f passes through.
func snapToLevels(levels []float64, f float64) float64 {
	if len(levels) == 0 {
		return f
	}
	if i := sort.SearchFloat64s(levels, f-1e-9); i < len(levels) {
		return levels[i]
	}
	return levels[len(levels)-1]
}

// UniformLevels equips the device with n evenly spaced DVFS operating
// points spanning [FMin, FMax] (n ≥ 2).
func (d *Device) UniformLevels(n int) {
	if n < 2 {
		panic(fmt.Sprintf("device %d: need ≥2 DVFS levels, got %d", d.ID, n))
	}
	d.Levels = make([]float64, n)
	for i := range d.Levels {
		d.Levels[i] = d.FMin + (d.FMax-d.FMin)*float64(i)/float64(n-1)
	}
	// Pin the endpoints exactly: the interpolation above can exceed FMax by
	// one ULP, which downstream range checks would reject.
	d.Levels[0] = d.FMin
	d.Levels[n-1] = d.FMax
}

// TotalCycles returns π·|D_q|, the cycles for one full local update pass.
func (d *Device) TotalCycles() float64 {
	return d.CyclesPerSample * float64(d.NumSamples)
}

// ComputeDelay returns T_q^cal = π·|D_q| / f (Eq. 4) at frequency f in Hz.
func (d *Device) ComputeDelay(f float64) float64 {
	if f <= 0 {
		panic(fmt.Sprintf("device %d: compute delay at non-positive frequency %g", d.ID, f))
	}
	return d.TotalCycles() / f
}

// ComputeDelayAtMax returns T_q^cal at FMax, the value Algorithm 2 ranks on.
func (d *Device) ComputeDelayAtMax() float64 { return d.ComputeDelay(d.FMax) }

// ComputeEnergy returns E_q^cal = (α/2)·π·|D_q|·f² (Eq. 5) at frequency f.
func (d *Device) ComputeEnergy(f float64) float64 {
	return d.Kappa / 2 * d.TotalCycles() * f * f
}

// CatalogConfig controls random generation of a heterogeneous device fleet.
type CatalogConfig struct {
	// Q is the number of devices (paper: 100).
	Q int
	// FMin is the shared minimum frequency (paper: 0.3 GHz).
	FMin float64
	// FMaxLow and FMaxHigh bound the uniformly sampled per-device maximum
	// frequency (paper: (0.3, 2.0) GHz).
	FMaxLow, FMaxHigh float64
	// CyclesPerSample is π (paper: 1e7).
	CyclesPerSample float64
	// Kappa is α (paper, corrected: 2e-28).
	Kappa float64
	// TxPower is p_q (paper: 0.2 W for all users).
	TxPower float64
	// GainLow and GainHigh bound the uniformly sampled channel gain h_q.
	// Defaults give SNRs that put upload delays on the same second-scale as
	// compute delays, matching the paper's regime where both matter.
	GainLow, GainHigh float64
	// SamplesLow and SamplesHigh, when SamplesHigh > 0, bound the uniformly
	// sampled local dataset size |D_q| for fleets generated without a real
	// data partition (the scale benchmarks). Zero (the default) leaves
	// NumSamples unset, matching NewCatalog, whose draws they never touch.
	SamplesLow, SamplesHigh int
}

// DefaultCatalogConfig returns the paper's experimental setting.
func DefaultCatalogConfig() CatalogConfig {
	return CatalogConfig{
		Q:               100,
		FMin:            DefaultFMin,
		FMaxLow:         FMaxLow,
		FMaxHigh:        FMaxHigh,
		CyclesPerSample: DefaultCyclesPerSample,
		Kappa:           DefaultKappa,
		TxPower:         0.2,
		GainLow:         0.5,
		GainHigh:        1.5,
	}
}

// NewCatalog samples a heterogeneous fleet from cfg using rng. FMax is drawn
// uniformly from the open interval (FMaxLow, FMaxHigh) but never below FMin.
func NewCatalog(cfg CatalogConfig, rng *rand.Rand) []*Device {
	if cfg.Q <= 0 {
		panic(fmt.Sprintf("device: catalog size %d must be positive", cfg.Q))
	}
	devs := make([]*Device, cfg.Q)
	for q := range devs {
		fmax := cfg.FMaxLow + (cfg.FMaxHigh-cfg.FMaxLow)*rng.Float64()
		if fmax < cfg.FMin {
			fmax = cfg.FMin
		}
		devs[q] = &Device{
			ID:              q,
			FMin:            cfg.FMin,
			FMax:            fmax,
			CyclesPerSample: cfg.CyclesPerSample,
			Kappa:           cfg.Kappa,
			TxPower:         cfg.TxPower,
			ChannelGain:     cfg.GainLow + (cfg.GainHigh-cfg.GainLow)*rng.Float64(),
		}
	}
	return devs
}
