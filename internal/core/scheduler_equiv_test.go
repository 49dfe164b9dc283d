package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
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

// pow2Denominators rewrites s's static delays so that user q's Eq. (20)
// denominator is B·2^(q mod 4) for one of three dyadic B. At η = 0.5 a
// user selected k more times than one whose denominator is 2^k smaller
// ties it bit for bit, so equal utilities arise from different
// denominators, not only from identical devices.
func pow2Denominators(s *Scheduler) {
	for q := range s.tcalMax {
		scale := float64(int(1) << (q % 4))
		s.tcalMax[q] = (1 + 0.125*float64(q/4%3)) * scale
		s.tcom[q] = 0.5 * scale
	}
}

// nearTieDenominators rewrites s's static delays so that users 2m and
// 2m+1 have denominators one ulp apart — 2m+1's smaller, so its utility
// ranks first while α is 0 — chosen so that the first decay rounds the two
// utilities to one value. The re-keyed cohort then holds a tie its previous
// order has backwards, which only the index tie-break puts right.
func nearTieDenominators(s *Scheduler) {
	eta, same := s.params.Eta, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for q := 0; q+1 < len(s.tcalMax); q += 2 {
		d := 1.4 + 0.35*float64(q)/float64(len(s.tcalMax)) // an ulp of d moves η/d by under an ulp
		for step := 0; same(1/math.Nextafter(d, 0), 1/d) || !same(eta/math.Nextafter(d, 0), eta/d); step++ {
			if step == 1000 {
				panic("nearTieDenominators: no near tie found")
			}
			d = math.Nextafter(d, 2)
		}
		s.tcalMax[q], s.tcalMax[q+1] = d, math.Nextafter(d, 0)
		s.tcom[q], s.tcom[q+1] = 0, 0
	}
}

// fleetCase is one fleet of the selection property tests: η (0 keeps
// DefaultParams') and a rewrite of the static delays (nil keeps the
// fleet's own).
type fleetCase struct {
	fleet *device.Fleet
	eta   float64
	rig   func(*Scheduler)
}

// newCase builds a scheduler for c at fraction C.
func newCase(t *testing.T, c fleetCase, fraction float64) *Scheduler {
	t.Helper()
	p := DefaultParams()
	p.Fraction = fraction
	if c.eta != 0 {
		p.Eta = c.eta
	}
	s, err := NewFleetScheduler(c.fleet, wireless.DefaultChannel(), testModelBits, p)
	if err != nil {
		t.Fatal(err)
	}
	if c.rig != nil {
		c.rig(s)
	}
	return s
}

// wideAlphaState returns a state whose appearance counters spread from 0
// to about 8000: the utilities then span every exponent from order one
// through subnormals down to exact zeros, so every radix digit varies and
// zero utilities tie across the fleet.
func wideAlphaState(q int, rng *rand.Rand) SchedulerState {
	alpha := make([]int, q)
	for i := range alpha {
		alpha[i] = []int{0, 1, 2, rng.Intn(100), rng.Intn(3000), 6800 + rng.Intn(1200)}[rng.Intn(6)]
	}
	return SchedulerState{Alpha: alpha}
}

// selKey is one user's selection key: its utility and fleet index.
type selKey struct {
	util float64
	q    int32
}

// compareKeys orders by utility descending, then index ascending — the
// comparator the keyed order's radix passes replaced, kept as their oracle.
func compareKeys(a, b selKey) int {
	switch {
	case a.util > b.util:
		return -1
	case a.util < b.util:
		return 1
	}
	return cmp.Compare(a.q, b.q)
}

// requireKeyedOrder fails unless s.order is the fleet sorted by
// compareKeys over lastUtil, as every selection leaves it.
func requireKeyedOrder(t *testing.T, what string, s *Scheduler) {
	t.Helper()
	want := make([]int32, s.NumUsers())
	for i := range want {
		want[i] = int32(i)
	}
	slices.SortFunc(want, func(a, b int32) int {
		return compareKeys(selKey{s.lastUtil[a], a}, selKey{s.lastUtil[b], b})
	})
	if !slices.Equal(s.order, want) {
		t.Fatalf("%s: selection order is not sorted by (utility desc, index)", what)
	}
}

// TestSelectRoundMatchesNaive is the selection equivalence property test:
// across seeded random fleets, tie-heavy fleets and fleets whose ties come
// from different denominators (pow2Denominators, nearTieDenominators), at
// N = 1,
// N = Q and fractions between, for 50 consecutive rounds, the keyed
// selection must return the exact index sequence of the retained naive
// repeated argmax — order and tie-breaks included — leave bit-identical
// α, LastUtilities and ExportState behind, and keep the whole fleet sorted
// as the compareKeys oracle sorts it. At round 25 both twins import a
// state exported by a third scheduler that ran a different number of
// rounds, and at round 40 a state with a wide α spread (wideAlphaState),
// so the live scheduler's order must be rebuilt, not merged into.
func TestSelectRoundMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cases := []fleetCase{
		{fleet: tieFleet(60, 6)},   // dense exact ties
		{fleet: tieFleet(200, 50)}, // few huge tie groups
		{randomFleet(90, 40), 0.5, pow2Denominators},
		{fleet: randomFleet(120, 42), rig: nearTieDenominators},
		{fleet: randomFleet(251, 43), rig: nearTieDenominators},
		{randomFleet(333, 41), 0.5, pow2Denominators},
	}
	for trial := 0; trial < 8; trial++ {
		cases = append(cases, fleetCase{fleet: randomFleet(30+rng.Intn(400), int64(trial))})
	}
	for fi, c := range cases {
		fraction := []float64{0.001, 0.05, 0.1, 0.33, 0.5, 1.0}[fi%6]
		fastSched, naiveSched, donor := newCase(t, c, fraction), newCase(t, c, fraction), newCase(t, c, fraction)
		fl, p := c.fleet, fastSched.params
		for round := 0; round < 7+fi; round++ {
			donor.SelectRound()
		}
		var reuse []int
		for round := 0; round < 50; round++ {
			what := fmt.Sprintf("fleet %d C=%g round %d", fi, p.Fraction, round)
			if round == 25 || round == 40 {
				st := donor.ExportState()
				if round == 40 {
					st = wideAlphaState(fl.Len(), rng)
				}
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
			requireKeyedOrder(t, what, fastSched)
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

// planKey is one cohort member as Algorithm 3 orders it: compute delay at
// f_max, fleet index, and position in the selected slice.
type planKey struct {
	delay  float64
	q, pos int
}

// comparePlanKeys orders by (compute delay at f_max ascending, fleet index
// ascending) — Algorithm 3, line 1 — and by position last: the comparator
// the radix order of frequencyPlanInto replaced, kept as its oracle.
func comparePlanKeys(a, b planKey) int {
	switch {
	case a.delay < b.delay:
		return -1
	case a.delay > b.delay:
		return 1
	case a.q != b.q:
		return cmp.Compare(a.q, b.q)
	}
	return cmp.Compare(a.pos, b.pos)
}

// TestFrequencyPlanSelectedMatchesAoS differentially tests the SoA
// Algorithm 3 against the retained AoS FrequencyPlan, clamped and literal,
// continuous and discrete-DVFS, across random cohorts and cohorts of a
// tie fleet (blocks of identical devices, so equal tcalMax), on the
// scheduler's own payload and on another one (where the cached tcom must
// not be read). After each plan, the cohort order line 1 left in the
// rank buffer must be the comparePlanKeys oracle's.
func TestFrequencyPlanSelectedMatchesAoS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ch := wireless.DefaultChannel()
	for trial := 0; trial < 40; trial++ {
		fl := randomFleet(50+rng.Intn(200), int64(trial+100))
		if trial%4 == 2 {
			fl = tieFleet(40+rng.Intn(100), 1+rng.Intn(12))
		}
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
		bits := testModelBits
		if trial%4 == 1 {
			bits = 2.5e5
		}
		n := 1 + rng.Intn(fl.Len())
		selected := rng.Perm(fl.Len())[:n]
		cohort := make([]*device.Device, n)
		for i, q := range selected {
			cohort[i] = devs[q]
		}
		want := FrequencyPlan(cohort, ch, bits, p.StepsPerRound, p.Clamp)
		got := s.FrequencyPlanSelected(selected, ch, bits)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: freq[%d] = %v (SoA) vs %v (AoS), clamp=%v", trial, i, got[i], want[i], p.Clamp)
			}
		}
		keys := make([]planKey, n)
		for i, q := range selected {
			keys[i] = planKey{delay: float64(p.StepsPerRound) * fl.ComputeDelayAtMax(q), q: q, pos: i}
		}
		slices.SortFunc(keys, comparePlanKeys)
		for i, k := range keys {
			if int(s.ranks[i].i) != k.pos {
				t.Fatalf("trial %d: line 1 puts position %d at %d, oracle position %d", trial, s.ranks[i].i, i, k.pos)
			}
		}
	}
}

// TestFrequencyPlanRejectsDuplicateUser: a user listed twice in a cohort
// is a caller bug Algorithm 3 refuses rather than plans twice.
func TestFrequencyPlanRejectsDuplicateUser(t *testing.T) {
	s, err := NewFleetScheduler(randomFleet(20, 3), wireless.DefaultChannel(), testModelBits, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "user 7 selected twice") {
			t.Fatalf("panic %v, want user 7 selected twice", r)
		}
	}()
	s.FrequencyPlanSelected([]int{3, 7, 11, 7}, wireless.DefaultChannel(), testModelBits)
}

// TestTcomMatchesUploadDelay pins the cached Eq. (7) column bit for bit to
// the scalar UploadDelay Algorithm 3 would otherwise call, on random fleets
// and channels: the reuse is exact, not approximate.
func TestTcomMatchesUploadDelay(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		fl := randomFleet(100+rng.Intn(400), int64(trial))
		ch := wireless.Channel{BandwidthHz: 1e6 + 3e6*rng.Float64(), NoisePower: 0.1 + 3*rng.Float64()}
		bits := 1e4 + 1e7*rng.Float64()
		s, err := NewFleetScheduler(fl, ch, bits, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		for q := range s.tcom {
			if want := ch.UploadDelay(bits, fl.TxPower[q], fl.ChannelGain[q]); math.Float64bits(s.tcom[q]) != math.Float64bits(want) {
				t.Fatalf("trial %d user %d: tcom %v, UploadDelay %v", trial, q, s.tcom[q], want)
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
// of the fleet, and — the _cold cases — the first selection of a new
// scheduler, which builds the order (as the first after ImportState does).
func BenchmarkSelectRound(b *testing.B) {
	ch := wireless.DefaultChannel()
	for _, c := range []struct {
		name string
		q    int
		frac float64
		cold bool
	}{
		{"Q1e3", 1000, 0.1, false},
		{"Q1e5", 100000, 0.1, false},
		{"Q1e6", 1000000, 0.1, false},
		{"Q1e6_C0.01", 1000000, 0.01, false},
		{"Q1e5_cold", 100000, 0.1, true},
		{"Q1e6_cold", 1000000, 0.1, true},
	} {
		p := DefaultParams()
		p.Fraction = c.frac
		fl := randomFleet(c.q, 1)
		s, err := NewFleetScheduler(fl, ch, testModelBits, p)
		if err != nil {
			b.Fatal(err)
		}
		var sel []int
		sel = s.SelectRoundAppend(sel)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.cold {
					b.StopTimer()
					s, _ = NewFleetScheduler(fl, ch, testModelBits, p)
					b.StartTimer()
				}
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
