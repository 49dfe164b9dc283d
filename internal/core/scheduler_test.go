package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"helcfl/internal/device"
	"helcfl/internal/sim"
	"helcfl/internal/wireless"
)

const testModelBits = 4e5

func fleet(n int, seed int64) []*device.Device {
	cfg := device.DefaultCatalogConfig()
	cfg.Q = n
	devs := device.NewCatalog(cfg, rand.New(rand.NewSource(seed)))
	for i, d := range devs {
		d.NumSamples = 30 + 7*(i%6)
	}
	return devs
}

func newSched(t *testing.T, devs []*device.Device, p Params) *Scheduler {
	t.Helper()
	s, err := NewScheduler(devs, wireless.DefaultChannel(), testModelBits, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Eta: 0, Fraction: 0.1, StepsPerRound: 1},
		{Eta: 1, Fraction: 0.1, StepsPerRound: 1},
		{Eta: 0.9, Fraction: 0, StepsPerRound: 1},
		{Eta: 0.9, Fraction: 1.5, StepsPerRound: 1},
		{Eta: 0.9, Fraction: 0.1, StepsPerRound: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: Validate must fail for %+v", i, p)
		}
	}
}

func TestNewSchedulerRejectsDataFreeDevices(t *testing.T) {
	devs := fleet(3, 1)
	devs[1].NumSamples = 0
	if _, err := NewScheduler(devs, wireless.DefaultChannel(), testModelBits, DefaultParams()); err == nil {
		t.Fatal("device without data must be rejected")
	}
}

func TestUtilityEq20(t *testing.T) {
	devs := fleet(5, 2)
	s := newSched(t, devs, DefaultParams())
	for q := range devs {
		want := 1.0 / (s.tcalMax[q] + s.tcom[q])
		if got := s.Utility(q); math.Abs(got-want) > 1e-15 {
			t.Fatalf("fresh utility[%d] = %g, want %g", q, got, want)
		}
	}
	// After two selections, utility decays by η².
	s.markSelected(0)
	s.markSelected(0)
	want := 0.9 * 0.9 / (s.tcalMax[0] + s.tcom[0])
	if got := s.Utility(0); math.Abs(got-want) > 1e-15 {
		t.Fatalf("decayed utility = %g, want %g", got, want)
	}
}

func TestNumSelect(t *testing.T) {
	devs := fleet(100, 3)
	s := newSched(t, devs, DefaultParams())
	if s.NumSelect() != 10 {
		t.Fatalf("NumSelect = %d, want 10", s.NumSelect())
	}
	p := DefaultParams()
	p.Fraction = 0.001
	s2 := newSched(t, devs, p)
	if s2.NumSelect() != 1 {
		t.Fatalf("NumSelect floor = %d, want 1", s2.NumSelect())
	}
}

// TestCohortSize pins N = max(⌊Q·C⌋, 1) on products that binary floating
// point lands just below an integer (90·0.7 = 62.99999999999999), then
// checks every Q ≤ 10⁵ at percent fractions against the exact integer
// floor ⌊Q·k/100⌋.
func TestCohortSize(t *testing.T) {
	for _, c := range []struct {
		q    int
		frac float64
		want int
	}{
		{90, 0.7, 63},
		{100, 0.29, 29},
		{100, 0.57, 57},
		{100, 0.1, 10},
		{100, 0.001, 1},
		{10, 0.15, 1},
		{7, 1, 7},
		{1, 0.5, 1},
		{10000, 0.01, 100},
		{100000, 0.1, 10000},
	} {
		if got := CohortSize(c.q, c.frac); got != c.want {
			t.Errorf("CohortSize(%d, %v) = %d, want %d", c.q, c.frac, got, c.want)
		}
	}
	for _, k := range []int{1, 5, 10, 20, 25, 29, 57, 70} {
		frac := float64(k) / 100
		for q := 1; q <= 100000; q++ {
			if got, want := CohortSize(q, frac), max(q*k/100, 1); got != want {
				t.Fatalf("CohortSize(%d, %v) = %d, want %d", q, frac, got, want)
			}
		}
	}
}

func TestSelectRoundPicksFastestFirst(t *testing.T) {
	devs := fleet(20, 4)
	s := newSched(t, devs, DefaultParams())
	sel := s.SelectRound()
	if len(sel) != 2 {
		t.Fatalf("selected %d users, want 2", len(sel))
	}
	// With all counters at zero, the winners are exactly the users with the
	// smallest static delay.
	best, second := -1, -1
	for q := range devs {
		if best == -1 || s.tcalMax[q]+s.tcom[q] < s.tcalMax[best]+s.tcom[best] {
			second = best
			best = q
		} else if second == -1 || s.tcalMax[q]+s.tcom[q] < s.tcalMax[second]+s.tcom[second] {
			second = q
		}
	}
	if sel[0] != best || sel[1] != second {
		t.Fatalf("selected %v, want [%d %d]", sel, best, second)
	}
	// Their counters decayed.
	a := s.Appearances()
	if a[best] != 1 || a[second] != 1 {
		t.Fatalf("appearance counters = %v", a)
	}
}

func TestSelectRoundNoDuplicatesWithinRound(t *testing.T) {
	devs := fleet(30, 5)
	p := DefaultParams()
	p.Fraction = 0.5
	s := newSched(t, devs, p)
	sel := s.SelectRound()
	seen := map[int]bool{}
	for _, q := range sel {
		if seen[q] {
			t.Fatalf("user %d selected twice in one round", q)
		}
		seen[q] = true
	}
}

// The headline property of greedy-decay selection: unlike pure greedy
// (FedCS), every user is eventually selected, so all data enters training.
func TestGreedyDecayEventuallyCoversAllUsers(t *testing.T) {
	devs := fleet(50, 6)
	s := newSched(t, devs, DefaultParams()) // C = 0.1 → 5 per round
	rounds := 0
	for ; rounds < 500; rounds++ {
		s.SelectRound()
		all := true
		for _, a := range s.Appearances() {
			if a == 0 {
				all = false
				break
			}
		}
		if all {
			break
		}
	}
	if rounds == 500 {
		t.Fatal("greedy-decay never covered all users in 500 rounds")
	}
	// With η = 0.9 and 10% fraction the cover happens well before pure
	// round-robin would require.
	if rounds > 200 {
		t.Fatalf("cover took %d rounds, decay too weak", rounds)
	}
}

// Without decay (η→1 limit approximated by α never incrementing), greedy
// would pick the same users forever; the decay term is what rotates them.
func TestDecayRotatesSelection(t *testing.T) {
	devs := fleet(40, 7)
	s := newSched(t, devs, DefaultParams())
	first := s.SelectRound()
	// Run a few rounds; the fast users' utilities decay below slower users'.
	var later []int
	for i := 0; i < 20; i++ {
		later = s.SelectRound()
	}
	same := true
	for i := range first {
		if first[i] != later[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("selection never rotated under decay")
	}
}

// Property: selection is deterministic given the same history, and α grows
// by exactly N per round.
func TestSelectRoundCountersQuick(t *testing.T) {
	f := func(seed int64, etaRaw uint8) bool {
		eta := 0.5 + float64(etaRaw%49)/100.0 // 0.50–0.98
		devs := fleet(25, seed)
		p := Params{Eta: eta, Fraction: 0.2, StepsPerRound: 1, Clamp: true}
		s, err := NewScheduler(devs, wireless.DefaultChannel(), testModelBits, p)
		if err != nil {
			return false
		}
		total := 0
		for r := 0; r < 10; r++ {
			sel := s.SelectRound()
			total += len(sel)
		}
		sum := 0
		for _, a := range s.Appearances() {
			sum += a
		}
		return sum == total && total == 10*s.NumSelect()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFrequencyPlanFirstUserAtMax(t *testing.T) {
	devs := fleet(6, 8)
	ch := wireless.DefaultChannel()
	freqs := FrequencyPlan(devs, ch, testModelBits, 1, true)
	// Find the user with the smallest compute delay at max frequency: it
	// must run at FMax.
	fastest := 0
	for q := range devs {
		if devs[q].ComputeDelayAtMax() < devs[fastest].ComputeDelayAtMax() {
			fastest = q
		}
	}
	if freqs[fastest] != devs[fastest].FMax {
		t.Fatalf("fastest user frequency = %g, want FMax %g", freqs[fastest], devs[fastest].FMax)
	}
}

func TestFrequencyPlanWithinRangeWhenClamped(t *testing.T) {
	devs := fleet(12, 9)
	freqs := FrequencyPlan(devs, wireless.DefaultChannel(), testModelBits, 1, true)
	for i, f := range freqs {
		if f < devs[i].FMin-1e-9 || f > devs[i].FMax+1e-9 {
			t.Fatalf("device %d frequency %g outside [%g, %g]", i, f, devs[i].FMin, devs[i].FMax)
		}
	}
}

func TestFrequencyPlanUnclampedMatchesPseudocode(t *testing.T) {
	ch := wireless.Channel{BandwidthHz: 1e6, NoisePower: 0.1}
	mk := func(id, samples int, fmax float64) *device.Device {
		return &device.Device{
			ID: id, FMin: 0.3e9, FMax: fmax,
			CyclesPerSample: 1e7, Kappa: 2e-28,
			TxPower: 0.2, ChannelGain: 1.0, NumSamples: samples,
		}
	}
	d1 := mk(0, 40, 2e9) // T_cal^max = 0.2 s (first)
	d2 := mk(1, 60, 1e9) // T_cal^max = 0.6 s
	devs := []*device.Device{d1, d2}
	bits := 1e6
	tcom := ch.UploadDelay(bits, 0.2, 1.0)
	freqs := FrequencyPlan(devs, ch, bits, 1, false)
	if freqs[0] != d1.FMax {
		t.Fatalf("first user freq = %g", freqs[0])
	}
	// Pseudocode: T_1 = 0.2 + tcom; f_2 = π|D_2| / T_1.
	want := 6e8 / (0.2 + tcom)
	if math.Abs(freqs[1]-want)/want > 1e-12 {
		t.Fatalf("second user freq = %g, want %g", freqs[1], want)
	}
}

func TestFrequencyPlanEmptyAndSingle(t *testing.T) {
	if FrequencyPlan(nil, wireless.DefaultChannel(), testModelBits, 1, true) != nil {
		t.Fatal("empty plan must be nil")
	}
	devs := fleet(1, 10)
	freqs := FrequencyPlan(devs, wireless.DefaultChannel(), testModelBits, 1, true)
	if freqs[0] != devs[0].FMax {
		t.Fatal("single user must run at FMax")
	}
}

// The paper's central claim for Algorithm 3: the DVFS plan never increases
// the round makespan ("without degrading FL training performance") while
// strictly reducing compute energy whenever there is slack to reclaim.
func TestFrequencyPlanPreservesMakespanQuick(t *testing.T) {
	ch := wireless.DefaultChannel()
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%12 + 2
		devs := fleet(n, seed)
		maxRes := sim.SimulateRound(devs, sim.MaxFrequencies(devs), ch, testModelBits, 1)
		freqs := FrequencyPlan(devs, ch, testModelBits, 1, true)
		dvfsRes := sim.SimulateRound(devs, freqs, ch, testModelBits, 1)
		if dvfsRes.Makespan > maxRes.Makespan+1e-9 {
			return false
		}
		return dvfsRes.ComputeEnergy <= maxRes.ComputeEnergy+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFrequencyPlanSavesEnergyWithSlack(t *testing.T) {
	devs := fleet(10, 11)
	ch := wireless.DefaultChannel()
	maxRes := sim.SimulateRound(devs, sim.MaxFrequencies(devs), ch, testModelBits, 1)
	if maxRes.TotalSlack <= 0 {
		t.Skip("scenario produced no slack")
	}
	freqs := FrequencyPlan(devs, ch, testModelBits, 1, true)
	dvfsRes := sim.SimulateRound(devs, freqs, ch, testModelBits, 1)
	if dvfsRes.ComputeEnergy >= maxRes.ComputeEnergy {
		t.Fatalf("DVFS did not save energy: %g vs %g", dvfsRes.ComputeEnergy, maxRes.ComputeEnergy)
	}
}

func TestPlanRoundAlignment(t *testing.T) {
	devs := fleet(30, 12)
	s := newSched(t, devs, DefaultParams())
	ch := wireless.DefaultChannel()
	sel, freqs := s.PlanRound(ch, testModelBits)
	if len(sel) != len(freqs) {
		t.Fatalf("selection/frequency misalignment: %d vs %d", len(sel), len(freqs))
	}
	for i, q := range sel {
		if freqs[i] < devs[q].FMin-1e-9 || freqs[i] > devs[q].FMax+1e-9 {
			t.Fatalf("user %d frequency %g outside range", q, freqs[i])
		}
	}
}

func TestPowMatchesMathPow(t *testing.T) {
	for a := 0; a < 10; a++ {
		if math.Abs(pow(0.9, a)-math.Pow(0.9, float64(a))) > 1e-12 {
			t.Fatalf("pow(0.9, %d) disagrees with math.Pow", a)
		}
	}
}
