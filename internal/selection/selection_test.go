package selection

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"helcfl/internal/core"
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
		d.NumSamples = 40 + 5*(i%4)
	}
	return devs
}

func TestRandomSelectorCountAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sel := NewRandomSelector(50, 0.1, rng)
	for j := 0; j < 20; j++ {
		got := sel.Select(j)
		if len(got) != 5 {
			t.Fatalf("round %d: selected %d, want 5", j, len(got))
		}
		seen := map[int]bool{}
		for _, q := range got {
			if q < 0 || q >= 50 || seen[q] {
				t.Fatalf("round %d: bad selection %v", j, got)
			}
			seen[q] = true
		}
	}
}

func TestRandomSelectorFloorsToOne(t *testing.T) {
	sel := NewRandomSelector(5, 0.01, rand.New(rand.NewSource(2)))
	if sel.N() != 1 {
		t.Fatalf("N = %d, want 1", sel.N())
	}
}

func TestRandomSelectorCoversEveryoneEventually(t *testing.T) {
	sel := NewRandomSelector(30, 0.2, rand.New(rand.NewSource(3)))
	seen := map[int]bool{}
	for j := 0; j < 200 && len(seen) < 30; j++ {
		for _, q := range sel.Select(j) {
			seen[q] = true
		}
	}
	if len(seen) != 30 {
		t.Fatalf("random selection covered only %d of 30 users", len(seen))
	}
}

func TestRandomSelectorBadArgsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRandomSelector(0, 0.1, rand.New(rand.NewSource(1)))
}

func TestFedCSSelectsFastUsersWithinDeadline(t *testing.T) {
	devs := fleet(30, 4)
	ch := wireless.DefaultChannel()
	// Compute a deadline that admits roughly a third of the fleet.
	sel := NewFedCSSelector(devs, ch, testModelBits, 3.0, 1)
	got := sel.Select(0)
	if len(got) == 0 {
		t.Fatal("FedCS must select at least one user")
	}
	// The admitted cohort must be a prefix of the delay-sorted ordering:
	// every admitted user is at least as fast as every excluded one.
	admitted := map[int]bool{}
	for _, q := range got {
		admitted[q] = true
	}
	delay := func(q int) float64 {
		return devs[q].ComputeDelayAtMax() + ch.UploadDelay(testModelBits, devs[q].TxPower, devs[q].ChannelGain)
	}
	maxIn := 0.0
	for _, q := range got {
		if d := delay(q); d > maxIn {
			maxIn = d
		}
	}
	for q := range devs {
		if !admitted[q] && delay(q) < maxIn-1e-9 {
			t.Fatalf("excluded user %d is faster than admitted cohort", q)
		}
	}
	// Estimated round time within deadline (or single forced user).
	var reqs []wireless.UploadRequest
	for _, q := range got {
		reqs = append(reqs, wireless.UploadRequest{
			User:        q,
			ComputeDone: devs[q].ComputeDelayAtMax(),
			Duration:    ch.UploadDelay(testModelBits, devs[q].TxPower, devs[q].ChannelGain),
		})
	}
	if _, mk := wireless.ScheduleTDMA(reqs); mk > 3.0+1e-9 && len(got) > 1 {
		t.Fatalf("FedCS cohort misses its own deadline: %g", mk)
	}
}

func TestFedCSStaticAcrossRounds(t *testing.T) {
	devs := fleet(20, 5)
	sel := NewFedCSSelector(devs, wireless.DefaultChannel(), testModelBits, 2.5, 1)
	a := sel.Select(0)
	b := sel.Select(7)
	if len(a) != len(b) {
		t.Fatal("FedCS cohort size changed between rounds")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FedCS with static resources must reselect the same cohort")
		}
	}
	// Warm, a round allocates nothing but the cohort it returns.
	if n := testing.AllocsPerRun(10, func() { sel.Select(1) }); n > 1 {
		t.Errorf("warm FedCS Select allocates %v times, want at most the returned slice", n)
	}
}

// fedCSSelectOracle is the admission rule as first written — a stable sort
// on estimated total delay, then one from-scratch TDMA schedule per
// candidate — kept as the reference for the buffer-reusing Select.
func fedCSSelectOracle(devs []*device.Device, ch wireless.Channel, modelBits, deadlineSec float64, steps int) []int {
	type cand struct {
		q          int
		tcal, tcom float64
	}
	cands := make([]cand, len(devs))
	for q, d := range devs {
		cands[q] = cand{q: q, tcal: float64(steps) * d.ComputeDelayAtMax(), tcom: ch.UploadDelay(modelBits, d.TxPower, d.ChannelGain)}
	}
	sort.SliceStable(cands, func(a, b int) bool {
		da, db := cands[a].tcal+cands[a].tcom, cands[b].tcal+cands[b].tcom
		if da != db {
			return da < db
		}
		return cands[a].q < cands[b].q
	})
	var selected []int
	var reqs []wireless.UploadRequest
	for _, c := range cands {
		trial := append(reqs, wireless.UploadRequest{User: c.q, ComputeDone: c.tcal, Duration: c.tcom})
		if _, makespan := wireless.ScheduleTDMA(trial); makespan > deadlineSec && len(selected) > 0 {
			break
		}
		reqs = trial
		selected = append(selected, c.q)
	}
	return selected
}

func TestFedCSMatchesOracle(t *testing.T) {
	ch := wireless.DefaultChannel()
	for seed := int64(1); seed <= 7; seed++ {
		devs := fleet(25+10*int(seed), seed)
		if seed == 7 {
			// Equal totals: every device past the eighth copies one of the
			// first eight, so the order among twins falls to the index.
			for i := 8; i < len(devs); i++ {
				twin := *devs[i%8]
				devs[i] = &twin
			}
		}
		for _, steps := range []int{1, 3} {
			deadlines := []float64{1e-6, 1.5, 3, 6, 1e9}
			// Deadlines exactly at a prefix's makespan and one ulp either
			// side: the admission boundary itself.
			order := fedCSSelectOracle(devs, ch, testModelBits, math.Inf(1), steps)
			for _, k := range []int{2, len(order) / 3, len(order) / 2, len(order)} {
				reqs := make([]wireless.UploadRequest, k)
				for i, q := range order[:k] {
					d := devs[q]
					reqs[i] = wireless.UploadRequest{User: q, ComputeDone: float64(steps) * d.ComputeDelayAtMax(),
						Duration: ch.UploadDelay(testModelBits, d.TxPower, d.ChannelGain)}
				}
				_, m := wireless.ScheduleTDMA(reqs)
				deadlines = append(deadlines, math.Nextafter(m, 0), m, math.Nextafter(m, math.Inf(1)))
			}
			for _, deadline := range deadlines {
				sel := NewFedCSSelector(devs, ch, testModelBits, deadline, steps)
				want := fedCSSelectOracle(devs, ch, testModelBits, deadline, steps)
				for round := 0; round < 2; round++ {
					if got := sel.Select(round); !slices.Equal(got, want) {
						t.Fatalf("seed %d deadline %g steps %d round %d: cohort %v, want %v", seed, deadline, steps, round, got, want)
					}
				}
			}
		}
	}
}

func TestFedCSTinyDeadlineStillSelectsOne(t *testing.T) {
	devs := fleet(10, 6)
	sel := NewFedCSSelector(devs, wireless.DefaultChannel(), testModelBits, 1e-6, 1)
	if got := sel.Select(0); len(got) != 1 {
		t.Fatalf("FedCS must force one user, got %d", len(got))
	}
}

func TestFedCSLongerDeadlineAdmitsMore(t *testing.T) {
	devs := fleet(40, 7)
	ch := wireless.DefaultChannel()
	short := len(NewFedCSSelector(devs, ch, testModelBits, 2.0, 1).Select(0))
	long := len(NewFedCSSelector(devs, ch, testModelBits, 6.0, 1).Select(0))
	if long <= short {
		t.Fatalf("deadline 6s admits %d, 2s admits %d; want monotone growth", long, short)
	}
}

func TestMaxFreqPolicy(t *testing.T) {
	devs := fleet(5, 8)
	fs := MaxFreqPolicy(devs)
	for i, d := range devs {
		if fs[i] != d.FMax {
			t.Fatalf("device %d: %g != %g", i, fs[i], d.FMax)
		}
	}
}

func TestFEDLFreqClosedForm(t *testing.T) {
	devs := fleet(5, 9)
	k := 0.2
	fs := FEDLFreqPolicy{K: k}.Frequencies(devs)
	for i, d := range devs {
		want := d.ClampFreq(math.Cbrt(k / d.Kappa))
		if math.Abs(fs[i]-want) > 1 {
			t.Fatalf("device %d: %g != %g", i, fs[i], want)
		}
	}
}

// The closed form is the true minimizer of the per-user cost
// (α/2)πDf² + KπD/f over the frequency range.
func TestFEDLFreqMinimizesCostQuick(t *testing.T) {
	devs := fleet(1, 10)
	d := devs[0]
	cost := func(f, k float64) float64 {
		return d.ComputeEnergy(f) + k*d.ComputeDelay(f)
	}
	f := func(kRaw uint8) bool {
		k := 0.01 + float64(kRaw)/64.0 // 0.01–4
		fstar := FEDLFreqPolicy{K: k}.Frequencies([]*device.Device{d})[0]
		c0 := cost(fstar, k)
		for _, probe := range []float64{d.FMin, d.FMax, (d.FMin + d.FMax) / 2, fstar * 0.9, fstar * 1.1} {
			p := d.ClampFreq(probe)
			if cost(p, k) < c0-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestClassicFLPlanner(t *testing.T) {
	devs := fleet(20, 11)
	p := NewClassicFL(devs, 0.2, rand.New(rand.NewSource(1)))
	if p.Name() != "ClassicFL" {
		t.Fatalf("name = %s", p.Name())
	}
	sel, freqs := p.PlanRound(0)
	if len(sel) != 4 || len(freqs) != 4 {
		t.Fatalf("plan sizes = %d/%d", len(sel), len(freqs))
	}
	for i, q := range sel {
		if freqs[i] != devs[q].FMax {
			t.Fatal("ClassicFL must run at max frequency")
		}
	}
}

func TestFEDLPlannerFrequenciesDiffer(t *testing.T) {
	devs := fleet(20, 12)
	p := NewFEDL(devs, 0.2, 0.2, rand.New(rand.NewSource(2)))
	sel, freqs := p.PlanRound(0)
	// FEDL's balanced frequency is typically below FMax for fast devices.
	below := false
	for i, q := range sel {
		if freqs[i] < devs[q].FMax-1 {
			below = true
		}
		if freqs[i] < devs[q].FMin-1e-9 || freqs[i] > devs[q].FMax+1e-9 {
			t.Fatal("FEDL frequency outside device range")
		}
	}
	if !below {
		t.Fatal("FEDL should throttle at least one device below FMax")
	}
}

func TestHELCFLPlannerIntegration(t *testing.T) {
	devs := fleet(30, 13)
	ch := wireless.DefaultChannel()
	p, err := NewHELCFL(devs, ch, testModelBits, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "HELCFL" {
		t.Fatalf("name = %s", p.Name())
	}
	sel, freqs := p.PlanRound(0)
	if len(sel) != 3 || len(freqs) != 3 {
		t.Fatalf("plan sizes = %d/%d", len(sel), len(freqs))
	}
	// Selection must rotate over rounds (decay), and the DVFS plan must not
	// exceed the no-DVFS makespan.
	selDevs := make([]*device.Device, len(sel))
	for i, q := range sel {
		selDevs[i] = devs[q]
	}
	dvfs := sim.SimulateRound(selDevs, freqs, ch, testModelBits, 1)
	nodvfs := sim.SimulateRound(selDevs, sim.MaxFrequencies(selDevs), ch, testModelBits, 1)
	if dvfs.Makespan > nodvfs.Makespan+1e-9 {
		t.Fatal("HELCFL DVFS plan lengthened the round")
	}
	if dvfs.ComputeEnergy > nodvfs.ComputeEnergy+1e-12 {
		t.Fatal("HELCFL DVFS plan did not save compute energy")
	}
}

func TestHELCFLNoDVFSVariant(t *testing.T) {
	devs := fleet(20, 14)
	ch := wireless.DefaultChannel()
	p, err := NewHELCFL(devs, ch, testModelBits, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	p.DisableDVFS = true
	if p.Name() != "HELCFL-noDVFS" {
		t.Fatalf("name = %s", p.Name())
	}
	sel, freqs := p.PlanRound(0)
	for i, q := range sel {
		if freqs[i] != devs[q].FMax {
			t.Fatal("no-DVFS variant must run at max frequency")
		}
	}
}

func TestHELCFLRejectsBadParams(t *testing.T) {
	devs := fleet(5, 15)
	if _, err := NewHELCFL(devs, wireless.DefaultChannel(), testModelBits, core.Params{Eta: 2, Fraction: 0.1, StepsPerRound: 1}); err == nil {
		t.Fatal("bad η must be rejected")
	}
}

// HELCFL vs FedCS coverage: over many rounds HELCFL touches every user
// while FedCS never leaves its fast cohort.
func TestCoverageContrastHELCFLvsFedCS(t *testing.T) {
	devs := fleet(40, 16)
	ch := wireless.DefaultChannel()
	h, err := NewHELCFL(devs, ch, testModelBits, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	fedcs := NewFedCS(devs, ch, testModelBits, 2.5, 1)
	hSeen := map[int]bool{}
	fSeen := map[int]bool{}
	for j := 0; j < 150; j++ {
		sel, _ := h.PlanRound(j)
		for _, q := range sel {
			hSeen[q] = true
		}
		fsel, _ := fedcs.PlanRound(j)
		for _, q := range fsel {
			fSeen[q] = true
		}
	}
	if len(hSeen) != len(devs) {
		t.Fatalf("HELCFL covered %d of %d users", len(hSeen), len(devs))
	}
	if len(fSeen) == len(devs) {
		t.Fatal("FedCS unexpectedly covered every user; deadline too loose for the contrast")
	}
}
