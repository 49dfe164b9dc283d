package sim

import (
	"testing"

	"helcfl/internal/core"
	"helcfl/internal/device"
	"helcfl/internal/wireless"
)

// scaleRig drives whole scheduling rounds at fleet scale the way the fl
// engine does: PlanRoundInto on the SoA fleet, gather the cohort's devices,
// simulate the TDMA round — every buffer reused.
type scaleRig struct {
	sched   *core.Scheduler
	devs    []*device.Device
	ch      wireless.Channel
	sel     []int
	freqs   []float64
	selDevs []*device.Device
	scratch Scratch
	res     RoundResult
}

func newScaleRig(tb testing.TB, q int) *scaleRig {
	cfg := device.DefaultCatalogConfig()
	cfg.Q = q
	cfg.SamplesLow, cfg.SamplesHigh = 20, 60
	fleet := device.NewFleet(cfg, 1)
	r := &scaleRig{ch: wireless.DefaultChannel(), devs: fleet.Devices()}
	var err error
	if r.sched, err = core.NewFleetScheduler(fleet, r.ch, testModelBits, core.DefaultParams()); err != nil {
		tb.Fatal(err)
	}
	return r
}

func (r *scaleRig) plan() {
	r.sel, r.freqs = r.sched.PlanRoundInto(r.sel, r.freqs, r.ch, testModelBits)
	r.selDevs = r.selDevs[:0]
	for _, q := range r.sel {
		r.selDevs = append(r.selDevs, r.devs[q])
	}
}

func (r *scaleRig) simulate() {
	r.res = r.scratch.SimulateRoundGains(r.selDevs, r.freqs, r.ch, testModelBits, 1, nil)
}

// TestWholeRoundAtScale runs warm plan → gather → simulate rounds at
// Q = 10⁵, C = 0.1 (a 10⁴-user TDMA cohort) and pins the scale path's
// contract: no allocation per round, a full cohort, uploads that never
// overlap and go out first come first served, and a makespan Eq. (10)
// lower-bounds.
func TestWholeRoundAtScale(t *testing.T) {
	const q = 100000
	r := newScaleRig(t, q)
	pos := make([]int, q) // position of a user in the round's cohort
	round := func() {
		r.plan()
		r.simulate()
		if len(r.sel) != r.sched.NumSelect() || len(r.res.Users) != len(r.sel) {
			t.Fatalf("cohort of %d users, %d trajectories, want %d", len(r.sel), len(r.res.Users), r.sched.NumSelect())
		}
		for i, u := range r.sel {
			pos[u] = i
		}
		users := r.res.Users
		for i, u := range users {
			if u.UploadStart < u.ComputeDelay {
				t.Fatalf("slot %d: user %d uploads at %g before its update completes at %g", i, u.User, u.UploadStart, u.ComputeDelay)
			}
			if i == 0 {
				continue
			}
			p := users[i-1]
			if u.UploadStart < p.UploadEnd {
				t.Fatalf("slot %d starts at %g before slot %d ends at %g", i, u.UploadStart, i-1, p.UploadEnd)
			}
			if u.ComputeDelay < p.ComputeDelay || (u.ComputeDelay <= p.ComputeDelay && pos[u.User] < pos[p.User]) {
				t.Fatalf("slots %d and %d out of (ComputeDone, User) order", i-1, i)
			}
		}
		if r.res.Makespan < r.res.Eq10Delay {
			t.Fatalf("makespan %g below the Eq. (10) bound %g", r.res.Makespan, r.res.Eq10Delay)
		}
	}
	round() // grow every buffer
	if n := testing.AllocsPerRun(3, round); n != 0 {
		t.Errorf("warm Q=1e5 round allocates %v times, want 0", n)
	}
}

// BenchmarkSimulateRound times the simulator on the Q = 10⁵ planner's
// 10⁴-user cohort in selection order, the input Engine.Step hands it.
func BenchmarkSimulateRound(b *testing.B) {
	r := newScaleRig(b, 100000)
	r.plan()
	r.simulate()
	b.Run("N1e4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.simulate()
		}
	})
}
