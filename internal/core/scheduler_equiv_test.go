package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"helcfl/internal/device"
	"helcfl/internal/wireless"
)

// SelectRoundNaive is the reference selection: the literal O(Q·N) repeated
// argmax of Algorithm 2 with utilities from the pow loop. The equivalence
// property tests below run it against SelectRound.
func (s *Scheduler) SelectRoundNaive() []int {
	n := s.NumSelect()
	q := s.fleet.Len()
	// Compute utilities for all selectable users (lines 8–10).
	utilities := make([]float64, q)
	for i := 0; i < q; i++ {
		utilities[i] = pow(s.params.Eta, s.alpha[i]) / (s.tcalMax[i] + s.tcom[i])
	}
	s.lastUtil = utilities
	selectable := make([]bool, q)
	for i := range selectable {
		selectable[i] = true
	}
	selected := make([]int, 0, n)
	for len(selected) < n {
		// argmax over the selectable set (line 15), ties broken by index
		// for determinism.
		best := -1
		for i := 0; i < q; i++ {
			if !selectable[i] {
				continue
			}
			if best == -1 || utilities[i] > utilities[best] {
				best = i
			}
		}
		if best == -1 {
			break // fewer users than N
		}
		selectable[best] = false
		selected = append(selected, best)
		s.markSelected(best)
	}
	return selected
}

// tieFleet builds a fleet where blocks of devices share bitwise-identical
// parameters, forcing exact utility ties the selection tie-break must
// resolve by index.
func tieFleet(q, blockSize int) *device.Fleet {
	f := &device.Fleet{
		FMin:            make([]float64, q),
		FMax:            make([]float64, q),
		CyclesPerSample: make([]float64, q),
		Kappa:           make([]float64, q),
		TxPower:         make([]float64, q),
		ChannelGain:     make([]float64, q),
		NumSamples:      make([]int, q),
	}
	for i := 0; i < q; i++ {
		block := i / blockSize
		f.FMin[i] = 0.3e9
		f.FMax[i] = 1e9 + 0.1e9*float64(block%7)
		f.CyclesPerSample[i] = 5e6
		f.Kappa[i] = 2e-28
		f.TxPower[i] = 0.2
		f.ChannelGain[i] = 0.8 + 0.05*float64(block%5)
		f.NumSamples[i] = 20 + 3*(block%4)
	}
	return f
}

func randomFleet(q int, seed int64) *device.Fleet {
	cfg := device.DefaultCatalogConfig()
	cfg.Q = q
	cfg.SamplesLow, cfg.SamplesHigh = 20, 60
	return device.NewFleet(cfg, seed)
}

// TestSelectRoundMatchesNaive is the selection equivalence property test:
// across seeded random fleets and tie-heavy fleets, at N = 1, N = Q and
// fractions between, for 50 consecutive rounds, the keyed selection must
// return the exact index sequence of the retained naive repeated argmax —
// order and tie-breaks included — and leave bit-identical α,
// LastUtilities and ExportState behind. At round 25 both twins import a
// state exported by a third scheduler that ran a different number of
// rounds, so the live scheduler's order must be rebuilt, not merged into.
func TestSelectRoundMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ch := wireless.DefaultChannel()
	fleets := []*device.Fleet{
		tieFleet(60, 6),   // dense exact ties
		tieFleet(200, 50), // few huge tie groups
	}
	for trial := 0; trial < 8; trial++ {
		fleets = append(fleets, randomFleet(30+rng.Intn(400), int64(trial)))
	}
	for fi, fl := range fleets {
		p := DefaultParams()
		p.Fraction = []float64{0.001, 0.05, 0.1, 0.33, 0.5, 1.0}[fi%6]
		scheds := make([]*Scheduler, 3)
		for i := range scheds {
			var err error
			if scheds[i], err = NewFleetScheduler(fl, ch, testModelBits, p); err != nil {
				t.Fatal(err)
			}
		}
		fastSched, naiveSched, donor := scheds[0], scheds[1], scheds[2]
		for round := 0; round < 7+fi; round++ {
			donor.SelectRound()
		}
		var reuse []int
		for round := 0; round < 50; round++ {
			what := fmt.Sprintf("fleet %d C=%g round %d", fi, p.Fraction, round)
			if round == 25 {
				st := donor.ExportState()
				if err := fastSched.ImportState(st); err != nil {
					t.Fatal(err)
				}
				if err := naiveSched.ImportState(st); err != nil {
					t.Fatal(err)
				}
			}
			var got []int
			if round%2 == 0 {
				got = fastSched.SelectRound()
			} else {
				reuse = fastSched.SelectRoundAppend(reuse)
				got = reuse
			}
			if want := naiveSched.SelectRoundNaive(); !slices.Equal(got, want) {
				t.Fatalf("%s:\nkeyed: %v\nnaive: %v", what, got, want)
			}
			requireSameState(t, what, fastSched, naiveSched)
		}
	}
}

// TestSelectRoundMatchesNaiveDegenerate extends the property above to the
// two shapes where the merge does all the work or none: a fleet whose
// utilities are all bitwise equal (every comparison falls through to the
// index tie-break, and decay then splits the fleet into exact-tie groups)
// and N = Q (every key changes each round; the sort alone must produce the
// selection order).
func TestSelectRoundMatchesNaiveDegenerate(t *testing.T) {
	ch := wireless.DefaultChannel()
	for _, c := range []struct {
		name     string
		fleet    *device.Fleet
		fraction float64
	}{
		{"all utilities equal", tieFleet(97, 97), 0.1},
		{"all utilities equal, N=Q", tieFleet(64, 64), 1},
		{"random fleet, N=Q", randomFleet(301, 5), 1},
	} {
		p := DefaultParams()
		p.Fraction = c.fraction
		fastSched, err := NewFleetScheduler(c.fleet, ch, testModelBits, p)
		if err != nil {
			t.Fatal(err)
		}
		naiveSched, err := NewFleetScheduler(c.fleet, ch, testModelBits, p)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 25; round++ {
			got, want := fastSched.SelectRound(), naiveSched.SelectRoundNaive()
			if !slices.Equal(got, want) {
				t.Fatalf("%s round %d:\nkeyed: %v\nnaive: %v", c.name, round, got, want)
			}
			if !slices.Equal(fastSched.alpha, naiveSched.alpha) {
				t.Fatalf("%s round %d: appearance counters diverged", c.name, round)
			}
		}
	}
}

// requireSameState fails unless a and b hold bit-identical decision state:
// appearance counters, LastUtilities and ExportState.
func requireSameState(t *testing.T, what string, a, b *Scheduler) {
	t.Helper()
	ea, eb := a.ExportState(), b.ExportState()
	if !slices.Equal(ea.Alpha, eb.Alpha) || !slices.Equal(a.Appearances(), b.Appearances()) {
		t.Fatalf("%s: appearance counters diverged\n%v\n%v", what, ea.Alpha, eb.Alpha)
	}
	if !sameBits(ea.LastUtil, eb.LastUtil) || !sameBits(a.LastUtilities(), b.LastUtilities()) {
		t.Fatalf("%s: utility vectors diverged\n%v\n%v", what, ea.LastUtil, eb.LastUtil)
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestEtaPowMemo pins the incremental η^{α} memo bit-identical to the pow
// reference loop out to α = 10⁴ — both perform the same multiplication
// sequence, so not even 1-ulp drift is tolerated.
func TestEtaPowMemo(t *testing.T) {
	for _, eta := range []float64{0.9, 0.5, 0.99, 0.123456789} {
		fl := randomFleet(3, 1)
		p := DefaultParams()
		p.Eta = eta
		s, err := NewFleetScheduler(fl, wireless.DefaultChannel(), testModelBits, p)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a <= 10000; a++ {
			if s.etaPow[0] != pow(eta, a) {
				t.Fatalf("eta=%v alpha=%d: memo %v != pow %v", eta, a, s.etaPow[0], pow(eta, a))
			}
			s.markSelected(0)
		}
	}
}

// TestFrequencyPlanSelectedMatchesAoS differentially tests the SoA
// Algorithm 3 against the retained AoS FrequencyPlan, clamped and literal,
// continuous and discrete-DVFS, across random cohorts.
func TestFrequencyPlanSelectedMatchesAoS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ch := wireless.DefaultChannel()
	for trial := 0; trial < 30; trial++ {
		fl := randomFleet(50+rng.Intn(200), int64(trial+100))
		devs := fl.Devices()
		if trial%3 == 0 {
			for _, d := range devs {
				d.UniformLevels(4 + rng.Intn(5))
			}
			fl = device.FleetOf(devs)
		}
		p := DefaultParams()
		p.Clamp = trial%2 == 0
		p.StepsPerRound = 1 + trial%3
		s, err := NewFleetScheduler(fl, ch, testModelBits, p)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.Intn(fl.Len())
		selected := rng.Perm(fl.Len())[:n]
		cohort := make([]*device.Device, n)
		for i, q := range selected {
			cohort[i] = devs[q]
		}
		want := FrequencyPlan(cohort, ch, testModelBits, p.StepsPerRound, p.Clamp)
		got := s.FrequencyPlanSelected(selected, ch, testModelBits)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: freq[%d] = %v (SoA) vs %v (AoS), clamp=%v", trial, i, got[i], want[i], p.Clamp)
			}
		}
	}
}

// TestPlanRoundIntoMatchesPlanRound checks the buffer-reusing form returns
// the same plan as the allocating form round after round.
func TestPlanRoundIntoMatchesPlanRound(t *testing.T) {
	ch := wireless.DefaultChannel()
	fl := randomFleet(300, 7)
	a, err := NewFleetScheduler(fl, ch, testModelBits, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFleetScheduler(fl, ch, testModelBits, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var sel []int
	var freqs []float64
	for round := 0; round < 10; round++ {
		wantSel, wantFreqs := a.PlanRound(ch, testModelBits)
		sel, freqs = b.PlanRoundInto(sel, freqs, ch, testModelBits)
		if len(sel) != len(wantSel) {
			t.Fatalf("round %d: cohort size %d vs %d", round, len(sel), len(wantSel))
		}
		for i := range sel {
			if sel[i] != wantSel[i] || freqs[i] != wantFreqs[i] {
				t.Fatalf("round %d user %d: (%d, %v) vs (%d, %v)", round, i, sel[i], freqs[i], wantSel[i], wantFreqs[i])
			}
		}
	}
}

// TestPlanRoundIntoZeroAlloc gates the steady-state scale path at zero
// allocations per round, at Q=1e4 and at sched_1e5's Q=1e5, C=0.1.
func TestPlanRoundIntoZeroAlloc(t *testing.T) {
	ch := wireless.DefaultChannel()
	for _, q := range []int{10000, 100000} {
		s, err := NewFleetScheduler(randomFleet(q, 11), ch, testModelBits, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		var sel []int
		var freqs []float64
		sel, freqs = s.PlanRoundInto(sel, freqs, ch, testModelBits) // warm buffers
		allocs := testing.AllocsPerRun(20, func() {
			sel, freqs = s.PlanRoundInto(sel, freqs, ch, testModelBits)
		})
		if allocs != 0 {
			t.Fatalf("Q=%d: PlanRoundInto allocates %v objects per round, want 0", q, allocs)
		}
	}
}

// TestSelectionRekeysOnlyLastCohort gates Algorithm 2 at O(N) keys per
// round without a clock: at Q=1e5, C=0.1 the first round keys all Q users,
// every later round only the previous cohort's N, and the first round after
// an ImportState into the live scheduler all Q again.
func TestSelectionRekeysOnlyLastCohort(t *testing.T) {
	ch := wireless.DefaultChannel()
	const q = 100000
	s, err := NewFleetScheduler(randomFleet(q, 17), ch, testModelBits, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	n := s.NumSelect()
	var sel []int
	var freqs []float64
	for round, want := range []int{q, n, n, n, n} {
		sel, freqs = s.PlanRoundInto(sel, freqs, ch, testModelBits)
		if got := s.LastHeapPushes(); got != want {
			t.Fatalf("round %d: %d keys updated, want %d", round, got, want)
		}
	}
	if err := s.ImportState(s.ExportState()); err != nil {
		t.Fatal(err)
	}
	for round, want := range []int{q, n, n} {
		sel = s.SelectRoundAppend(sel)
		if got := s.LastHeapPushes(); got != want {
			t.Fatalf("round %d after ImportState: %d keys updated, want %d", round, got, want)
		}
	}
}

// TestImportStateRebuildsMemo checks a restored scheduler selects
// bit-identically to one that never restarted (the etaPow memo must be
// rebuilt from the imported counters).
func TestImportStateRebuildsMemo(t *testing.T) {
	ch := wireless.DefaultChannel()
	fl := randomFleet(120, 13)
	orig, err := NewFleetScheduler(fl, ch, testModelBits, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 7; round++ {
		orig.SelectRound()
	}
	st := orig.ExportState()
	restored, err := NewFleetScheduler(fl, ch, testModelBits, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ImportState(st); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 7; round++ {
		a := orig.SelectRound()
		b := restored.SelectRound()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d: restored scheduler diverged (%v vs %v)", round, a, b)
			}
		}
	}
}

// BenchmarkSelectRound times a steady-state round (the order already
// built), at C=0.1 and at the Q=1e6, C=0.01 shape where the cohort is 1 %
// of the fleet.
func BenchmarkSelectRound(b *testing.B) {
	ch := wireless.DefaultChannel()
	for _, c := range []struct {
		name string
		q    int
		frac float64
	}{
		{"Q1e3", 1000, 0.1},
		{"Q1e5", 100000, 0.1},
		{"Q1e6", 1000000, 0.1},
		{"Q1e6_C0.01", 1000000, 0.01},
	} {
		p := DefaultParams()
		p.Fraction = c.frac
		s, err := NewFleetScheduler(randomFleet(c.q, 1), ch, testModelBits, p)
		if err != nil {
			b.Fatal(err)
		}
		var sel []int
		sel = s.SelectRoundAppend(sel)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sel = s.SelectRoundAppend(sel)
			}
		})
	}
}

func BenchmarkFrequencyPlan(b *testing.B) {
	ch := wireless.DefaultChannel()
	for _, q := range []int{1000, 100000, 1000000} {
		fl := randomFleet(q, 1)
		s, err := NewFleetScheduler(fl, ch, testModelBits, DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		var sel []int
		var freqs []float64
		sel, freqs = s.PlanRoundInto(sel, freqs, ch, testModelBits)
		b.Run(benchName(q), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if cap(freqs) < len(sel) {
					freqs = make([]float64, len(sel))
				}
				freqs = freqs[:len(sel)]
				s.frequencyPlanInto(freqs, sel, ch, testModelBits)
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
