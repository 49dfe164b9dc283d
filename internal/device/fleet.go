package device

import (
	"fmt"
	"runtime"
	"sync"
)

// Fleet is the structure-of-arrays form of a device catalog: one parallel
// slice per field instead of a slice of per-device structs. At the paper's
// Q=100 the two layouts are interchangeable; at Q=10⁶ the SoA form is what
// lets the scheduler stream utilities, delays, and energies through
// contiguous memory with no pointer chasing. Index q everywhere is the
// fleet position, which doubles as the device ID.
type Fleet struct {
	// FMin and FMax bound each device's operating frequency (constraint 15).
	FMin, FMax []float64
	// CyclesPerSample is π in Eq. (4).
	CyclesPerSample []float64
	// Kappa is the effective switched capacitance α in Eq. (5).
	Kappa []float64
	// TxPower is the uplink transmission power p_q in watts.
	TxPower []float64
	// ChannelGain is h_q toward the FLCC (or the device's edge aggregator).
	ChannelGain []float64
	// NumSamples is |D_q|.
	NumSamples []int
	// Levels, when non-nil, holds each device's discrete DVFS operating
	// points (nil entry = continuously tunable). A nil table means the whole
	// fleet is continuous — the common case, kept as one nil check in the
	// SnapFreq hot path.
	Levels [][]float64
}

// Len returns Q, the fleet size.
func (f *Fleet) Len() int { return len(f.FMax) }

// Validate reports configuration errors, mirroring Device.Validate per
// index (messages match so SoA and AoS constructions fail identically).
func (f *Fleet) Validate() error {
	q := f.Len()
	if len(f.FMin) != q || len(f.CyclesPerSample) != q || len(f.Kappa) != q ||
		len(f.TxPower) != q || len(f.ChannelGain) != q || len(f.NumSamples) != q {
		return fmt.Errorf("device: ragged fleet arrays (Q=%d)", q)
	}
	if f.Levels != nil && len(f.Levels) != q {
		return fmt.Errorf("device: ragged fleet levels table (Q=%d)", q)
	}
	for i := 0; i < q; i++ {
		switch {
		case f.FMin[i] <= 0 || f.FMax[i] <= 0:
			return fmt.Errorf("device %d: non-positive frequency bounds [%g, %g]", i, f.FMin[i], f.FMax[i])
		case f.FMin[i] > f.FMax[i]:
			return fmt.Errorf("device %d: FMin %g above FMax %g", i, f.FMin[i], f.FMax[i])
		case f.CyclesPerSample[i] <= 0:
			return fmt.Errorf("device %d: non-positive cycles per sample %g", i, f.CyclesPerSample[i])
		case f.Kappa[i] <= 0:
			return fmt.Errorf("device %d: non-positive switched capacitance %g", i, f.Kappa[i])
		case f.TxPower[i] <= 0:
			return fmt.Errorf("device %d: non-positive transmit power %g", i, f.TxPower[i])
		case f.ChannelGain[i] <= 0:
			return fmt.Errorf("device %d: non-positive channel gain %g", i, f.ChannelGain[i])
		}
	}
	return nil
}

// TotalCycles returns π·|D_q| for device q.
func (f *Fleet) TotalCycles(q int) float64 {
	return f.CyclesPerSample[q] * float64(f.NumSamples[q])
}

// ComputeDelay returns T_q^cal = π·|D_q| / freq (Eq. 4).
func (f *Fleet) ComputeDelay(q int, freq float64) float64 {
	if freq <= 0 {
		panic(fmt.Sprintf("device %d: compute delay at non-positive frequency %g", q, freq))
	}
	return f.TotalCycles(q) / freq
}

// ComputeDelayAtMax returns T_q^cal at FMax, the value Algorithm 2 ranks on.
func (f *Fleet) ComputeDelayAtMax(q int) float64 { return f.ComputeDelay(q, f.FMax[q]) }

// ClampFreq projects freq onto device q's [FMin, FMax].
func (f *Fleet) ClampFreq(q int, freq float64) float64 {
	if freq < f.FMin[q] {
		return f.FMin[q]
	}
	if freq > f.FMax[q] {
		return f.FMax[q]
	}
	return freq
}

// SnapFreq is Device.SnapFreq on the SoA layout: clamp, then quantize onto
// device q's discrete levels when it has any.
func (f *Fleet) SnapFreq(q int, freq float64) float64 {
	freq = f.ClampFreq(q, freq)
	if f.Levels == nil {
		return freq
	}
	return snapToLevels(f.Levels[q], freq)
}

// FleetOf snapshots an AoS catalog into SoA form. Field values are copied;
// Levels slices are shared (they are read-only operating-point tables).
// Positions follow devs order — callers that rely on the position==ID
// convention (every catalog in this module) get identical indexing in both
// layouts.
func FleetOf(devs []*Device) *Fleet {
	q := len(devs)
	f := &Fleet{
		FMin:            make([]float64, q),
		FMax:            make([]float64, q),
		CyclesPerSample: make([]float64, q),
		Kappa:           make([]float64, q),
		TxPower:         make([]float64, q),
		ChannelGain:     make([]float64, q),
		NumSamples:      make([]int, q),
	}
	for i, d := range devs {
		f.FMin[i] = d.FMin
		f.FMax[i] = d.FMax
		f.CyclesPerSample[i] = d.CyclesPerSample
		f.Kappa[i] = d.Kappa
		f.TxPower[i] = d.TxPower
		f.ChannelGain[i] = d.ChannelGain
		f.NumSamples[i] = d.NumSamples
		if len(d.Levels) > 0 {
			if f.Levels == nil {
				f.Levels = make([][]float64, q)
			}
			f.Levels[i] = d.Levels
		}
	}
	return f
}

// Devices materializes the AoS view of the fleet (IDs are positions) — the
// thin adapter that keeps []*Device consumers (the FL engine, deploy
// conformance) working on SoA-generated fleets.
func (f *Fleet) Devices() []*Device {
	devs := make([]*Device, f.Len())
	for q := range devs {
		d := &Device{
			ID:              q,
			FMin:            f.FMin[q],
			FMax:            f.FMax[q],
			CyclesPerSample: f.CyclesPerSample[q],
			Kappa:           f.Kappa[q],
			TxPower:         f.TxPower[q],
			ChannelGain:     f.ChannelGain[q],
			NumSamples:      f.NumSamples[q],
		}
		if f.Levels != nil {
			d.Levels = f.Levels[q]
		}
		devs[q] = d
	}
	return devs
}

// fleetChunk is the per-goroutine block size of NewFleet's parallel fill:
// large enough to amortize goroutine startup, small enough to balance load.
const fleetChunk = 1 << 16

// NewFleet samples a heterogeneous fleet of cfg.Q devices directly in SoA
// form. Unlike NewCatalog's sequential *rand.Rand draws, every value is
// derived from (seed, q, dim) through a splitmix64 finalizer, so generation
// is order-independent: index blocks fill on all cores, fleets of different
// sizes share prefixes, and the result is identical across runs and
// GOMAXPROCS settings. When cfg.SamplesHigh > 0, NumSamples is sampled
// uniformly from [SamplesLow, SamplesHigh]; otherwise it is left zero like
// NewCatalog (callers partition real data onto the fleet).
func NewFleet(cfg CatalogConfig, seed int64) *Fleet {
	if cfg.Q <= 0 {
		panic(fmt.Sprintf("device: catalog size %d must be positive", cfg.Q))
	}
	f := &Fleet{
		FMin:            make([]float64, cfg.Q),
		FMax:            make([]float64, cfg.Q),
		CyclesPerSample: make([]float64, cfg.Q),
		Kappa:           make([]float64, cfg.Q),
		TxPower:         make([]float64, cfg.Q),
		ChannelGain:     make([]float64, cfg.Q),
		NumSamples:      make([]int, cfg.Q),
	}
	workers := runtime.GOMAXPROCS(0)
	if blocks := (cfg.Q + fleetChunk - 1) / fleetChunk; workers > blocks {
		workers = blocks
	}
	if workers <= 1 {
		fillFleetRange(f, cfg, seed, 0, cfg.Q)
		return f
	}
	var wg sync.WaitGroup
	next := 0
	per := (cfg.Q + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := next, next+per
		if hi > cfg.Q {
			hi = cfg.Q
		}
		next = hi
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fillFleetRange(f, cfg, seed, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return f
}

// fillFleetRange derives devices [lo, hi). Each index depends only on
// (seed, q), never on its neighbours, which is what makes the parallel fill
// deterministic.
func fillFleetRange(f *Fleet, cfg CatalogConfig, seed int64, lo, hi int) {
	for q := lo; q < hi; q++ {
		fmax := cfg.FMaxLow + (cfg.FMaxHigh-cfg.FMaxLow)*keyedUniform(seed, q, 0)
		if fmax < cfg.FMin {
			fmax = cfg.FMin
		}
		f.FMin[q] = cfg.FMin
		f.FMax[q] = fmax
		f.CyclesPerSample[q] = cfg.CyclesPerSample
		f.Kappa[q] = cfg.Kappa
		f.TxPower[q] = cfg.TxPower
		f.ChannelGain[q] = cfg.GainLow + (cfg.GainHigh-cfg.GainLow)*keyedUniform(seed, q, 1)
		if cfg.SamplesHigh > 0 {
			span := cfg.SamplesHigh - cfg.SamplesLow + 1
			n := cfg.SamplesLow + int(keyedUniform(seed, q, 2)*float64(span))
			if n > cfg.SamplesHigh {
				n = cfg.SamplesHigh
			}
			f.NumSamples[q] = n
		}
	}
}

// keyedUniform maps (seed, q, dim) to a uniform float64 in [0, 1) through
// the splitmix64 finalizer — a stateless counterpart of rand.Float64 whose
// draws are independent of generation order.
func keyedUniform(seed int64, q int, dim uint64) float64 {
	x := uint64(seed) + 0x9E3779B97F4A7C15*(uint64(q)*3+dim+1)
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
