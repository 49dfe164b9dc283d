package main

import (
	"fmt"
	"math"
	"time"

	"helcfl/_bench/harness"
	"helcfl/internal/core"
	"helcfl/internal/device"
	"helcfl/internal/obs/span"
	"helcfl/internal/selection"
	"helcfl/internal/sim"
	"helcfl/internal/wireless"
)

// sched_1e5: a 100 000-user SoA fleet, C = 0.1, no training. Every round is
// PlanRoundInto → gather the cohort's *device.Device → simulate the TDMA
// round, which is the path Engine.Step takes at scale; core, sim, wireless
// and device do all the work and nn/tensor none.
var schedWorkload = workload{
	name:      "sched_1e5",
	seedCycle: 3,
	campaign:  schedCampaign,
	traced:    schedTraced,
}

// schedModelBits is C_model of the paper's MLP, as in BENCH_scale.json.
const schedModelBits = 208256

type schedSize struct{ q, rounds int }

func schedSizes(quick bool) schedSize {
	if quick {
		return schedSize{q: 10000, rounds: 10}
	}
	return schedSize{q: 100000, rounds: 30}
}

func schedCatalog(q int) device.CatalogConfig {
	cfg := device.DefaultCatalogConfig()
	cfg.Q = q
	cfg.SamplesLow, cfg.SamplesHigh = 20, 60
	return cfg
}

// schedRig is the built fleet and scheduler plus the round loop's buffers.
type schedRig struct {
	fleet   *device.Fleet
	sched   *core.Scheduler
	devs    []*device.Device
	ch      wireless.Channel
	sel     []int
	freqs   []float64
	selDevs []*device.Device
	scratch sim.Scratch
	seen    []int // round stamp per user, for the uniqueness check
}

func newSchedRig(q int, seed int64) (*schedRig, error) {
	r := &schedRig{ch: wireless.DefaultChannel()}
	r.fleet = device.NewFleet(schedCatalog(q), seed)
	var err error
	r.sched, err = core.NewFleetScheduler(r.fleet, r.ch, schedModelBits, core.DefaultParams())
	if err != nil {
		return nil, err
	}
	r.devs = r.fleet.Devices()
	r.seen = make([]int, q)
	return r, nil
}

func (r *schedRig) gather() {
	r.selDevs = r.selDevs[:0]
	for _, q := range r.sel {
		r.selDevs = append(r.selDevs, r.devs[q])
	}
}

// verify checks round j's plan: cohort size max(Q·C, 1), distinct users,
// a finite makespan. It returns the number of failed checks (0 or 1).
func (r *schedRig) verify(j int, res sim.RoundResult) int {
	ok := len(r.sel) == r.sched.NumSelect() && len(r.freqs) == len(r.sel)
	for _, q := range r.sel {
		if r.seen[q] == j+1 {
			ok = false
		}
		r.seen[q] = j + 1
	}
	if math.IsInf(res.Makespan, 0) || math.IsNaN(res.Makespan) || res.Makespan <= 0 {
		ok = false
	}
	if ok {
		return 0
	}
	return 1
}

// finish checks that the decay counters account for every selection.
func (r *schedRig) finish(o *outcome, rounds int) {
	total := 0
	for _, a := range r.sched.Appearances() {
		total += a
	}
	want := rounds * r.sched.NumSelect()
	o.check(total == want, "sched_1e5: appearance counters sum to %d, want rounds×N = %d", total, want)
}

func schedCampaign(seed int64, quick bool, o *outcome) (campaign, error) {
	sz := schedSizes(quick)
	t0 := time.Now()
	r, err := newSchedRig(sz.q, seed)
	if err != nil {
		return campaign{}, err
	}
	c := campaign{setupS: time.Since(t0).Seconds(), cells: 1, rounds: sz.rounds, roundMs: make([]float64, 0, sz.rounds)}

	bad := 0
	cpu0 := harness.CPUSeconds()
	for j := 0; j < sz.rounds; j++ {
		t := time.Now()
		r.sel, r.freqs = r.sched.PlanRoundInto(r.sel, r.freqs, r.ch, schedModelBits)
		r.gather()
		res := r.scratch.SimulateRoundGains(r.selDevs, r.freqs, r.ch, schedModelBits, 1, nil)
		d := time.Since(t)
		c.roundMs = append(c.roundMs, millis(d))
		c.runS += d.Seconds()
		bad += r.verify(j, res)
		c.digest = digestFloats(c.digest, r.freqs)
	}
	c.cpuS = harness.CPUSeconds() - cpu0
	o.checkN(sz.rounds, bad, "sched_1e5: rounds with a wrong cohort size, a repeated user or a non-finite makespan")
	r.finish(o, sz.rounds)
	return c, nil
}

const (
	spSchedRound  = "sched.round"
	spSchedSelect = "sched.core.select"
	spSchedDVFS   = "sched.core.dvfs"
	spSchedGather = "sched.device.gather"
	spSchedSim    = "sched.sim.simulate_round"
)

var schedLayers = map[string]string{
	spSchedRound: "harness", spSchedSelect: "core", spSchedDVFS: "core",
	spSchedGather: "device", spSchedSim: "sim",
}

func schedTraced(seed int64, quick bool, o *outcome, m metrics) ([]span.Rec, error) {
	sz := schedSizes(quick)
	ch := wireless.DefaultChannel()

	// Set-up, piece by piece.
	t0 := time.Now()
	fleet := device.NewFleet(schedCatalog(sz.q), seed)
	m["device.new_fleet_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	if _, err := core.NewFleetScheduler(fleet, ch, schedModelBits, core.DefaultParams()); err != nil {
		return nil, err
	}
	m["core.new_scheduler_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	devs := fleet.Devices()
	m["device.fleet_to_aos_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	if _, err := selection.NewHELCFL(devs, ch, schedModelBits, core.DefaultParams()); err != nil {
		return nil, err
	}
	m["selection.new_helcfl_s"] = time.Since(t0).Seconds()
	dst := make([]float64, sz.q)
	var perUser []float64
	for i := 0; i < 20; i++ {
		t0 = time.Now()
		ch.UploadDelayInto(dst, schedModelBits, fleet.TxPower, fleet.ChannelGain)
		perUser = append(perUser, float64(time.Since(t0).Nanoseconds())/float64(sz.q))
	}
	setTiming(m, "wireless.upload_delay_into.ns_per_user", "ns/user", perUser)

	// Plain reference campaign: the untraced round loop, plan timed apart.
	plain, err := newSchedRig(sz.q, seed)
	if err != nil {
		return nil, err
	}
	var planMs, plainMs []float64
	var plainDigest uint64
	for j := 0; j < sz.rounds; j++ {
		t := time.Now()
		plain.sel, plain.freqs = plain.sched.PlanRoundInto(plain.sel, plain.freqs, ch, schedModelBits)
		planMs = append(planMs, millis(time.Since(t)))
		plain.gather()
		plain.scratch.SimulateRoundGains(plain.selDevs, plain.freqs, ch, schedModelBits, 1, nil)
		plainMs = append(plainMs, millis(time.Since(t)))
		plainDigest = digestFloats(plainDigest, plain.freqs)
	}
	setTiming(m, "core.plan.p50_ms", "ms", planMs)

	// Traced campaign: the same rounds under spans, the plan split into its
	// selection and DVFS halves.
	coll := &span.Collector{}
	rec := span.NewRecorder(uint64(seed), span.Options{Capacity: 1, Exporter: coll})
	r, err := newSchedRig(sz.q, seed)
	if err != nil {
		return nil, err
	}
	bad, pushes := 0, 0
	var digest uint64
	var last sim.RoundResult
	for j := 0; j < sz.rounds; j++ {
		rs := rec.Start(rec.Root(), spSchedRound)
		sp := rec.Start(rs.Ref(), spSchedSelect)
		r.sel = r.sched.SelectRoundAppend(r.sel)
		sp.End()
		pushes += r.sched.LastHeapPushes()
		sp = rec.Start(rs.Ref(), spSchedDVFS)
		r.freqs = r.sched.FrequencyPlanSelected(r.sel, ch, schedModelBits)
		sp.End()
		sp = rec.Start(rs.Ref(), spSchedGather)
		r.gather()
		sp.End()
		sp = rec.Start(rs.Ref(), spSchedSim)
		last = r.scratch.SimulateRoundGains(r.selDevs, r.freqs, ch, schedModelBits, 1, nil)
		sp.End()
		rs.End()
		bad += r.verify(j, last)
		digest = digestFloats(digest, r.freqs)
		m["sim.delay_s"] += last.Makespan
		m["sim.energy_j"] += last.TotalEnergy
	}
	o.checkN(sz.rounds, bad, "sched_1e5: traced rounds with a wrong cohort size, a repeated user or a non-finite makespan")
	r.finish(o, sz.rounds)
	o.check(digest == plainDigest, "sched_1e5: select+DVFS halves planned differently from PlanRoundInto")
	recs := coll.Snapshot()
	setTiming(m, "core.select.p50_ms", "ms", harness.DurationsMs(recs, spSchedSelect))
	setTiming(m, "core.dvfs.p50_ms", "ms", harness.DurationsMs(recs, spSchedDVFS))
	setTiming(m, "sim.simulate_round.p50_ms", "ms", harness.DurationsMs(recs, spSchedSim))
	m["core.select.heap_pushes"] = float64(pushes)
	m["trace.overhead_pct"] = overheadPct(harness.Median(harness.DurationsMs(recs, spSchedRound)), harness.Median(plainMs))
	layerShares(m, recs, schedLayers)

	// The TDMA scheduler alone, on the last round's own requests.
	reqs := make([]wireless.UploadRequest, len(last.Users))
	for i, u := range last.Users {
		reqs[i] = wireless.UploadRequest{User: i, ComputeDone: u.ComputeDelay, Duration: u.UploadDelay}
	}
	var slots []wireless.UploadSlot
	var tdmaMs []float64
	for i := 0; i < 10; i++ {
		t0 = time.Now()
		slots, _ = wireless.ScheduleTDMAInto(slots, reqs)
		tdmaMs = append(tdmaMs, millis(time.Since(t0)))
	}
	setTiming(m, "wireless.schedule_tdma.p50_ms", "ms", tdmaMs)

	// The same layer used in parallel: eight edge schedulers over the fleet.
	hier, err := selection.NewHierHELCFL(devs, 8, ch, schedModelBits, core.DefaultParams())
	if err != nil {
		return nil, err
	}
	var hierMs []float64
	for j := 0; j < sz.rounds; j++ {
		t0 = time.Now()
		sel, _ := hier.PlanRound(j)
		hierMs = append(hierMs, millis(time.Since(t0)))
		if len(sel) == 0 {
			return nil, fmt.Errorf("sched_1e5: hierarchical planner selected no users in round %d", j)
		}
	}
	setTiming(m, "selection.hier_plan_e8.p50_ms", "ms", hierMs)
	return recs, nil
}
