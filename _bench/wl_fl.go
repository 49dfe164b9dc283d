package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"helcfl/_bench/harness"
	"helcfl/internal/core"
	"helcfl/internal/dataset"
	"helcfl/internal/experiments"
	"helcfl/internal/fl"
	"helcfl/internal/obs/span"
	"helcfl/internal/selection"
)

// flSpec is one of the three whole-round workloads: the paper's fleet and
// HELCFL planner through fl.NewEngine + Engine.Step, differing in what the
// round spends its time on.
type flSpec struct {
	name    string
	setting experiments.Setting
	// preset sizes one campaign; quick cuts it down for the smoke mode.
	preset func(quick bool) experiments.Preset
	// accFloor is the final accuracy every campaign must clear. It sits
	// well under the lowest value seen over seeds 1–22 when the sizes were
	// frozen, so it trips on a broken model, not on an unlucky seed.
	accFloor, quickAccFloor float64
	// seedCycle: see workload.
	seedCycle int
}

var (
	// fl_mlp: the paper's own configuration. Dense matmuls plus an
	// fl.Evaluate over 1000 test samples every round; scheduler work ~0.
	flMLP = flSpec{
		name: "fl_mlp", setting: experiments.NonIID, seedCycle: 3,
		accFloor: 0.30, quickAccFloor: 0.12,
		preset: func(quick bool) experiments.Preset {
			p := experiments.Paper()
			p.MaxRounds = 150
			if quick {
				p.MaxRounds = 12
			}
			return p
		},
	}
	// fl_cnn: same fleet, the paper's model family. im2col/col2im and
	// tall-skinny matmuls; the local-update worker pool does nearly all
	// the work. Thirty rounds do not lift this model off chance (0.10), so
	// its floor only catches a collapse; the finite-loss check does the rest.
	flCNN = flSpec{
		name: "fl_cnn", setting: experiments.IID, seedCycle: 3,
		accFloor: 0.05, quickAccFloor: 0.05,
		preset: func(quick bool) experiments.Preset {
			p := experiments.Paper()
			p.ModelKind = "squeezenet-mini"
			p.MaxRounds = 30
			p.EvalEvery = 10
			if quick {
				p.MaxRounds = 2
			}
			return p
		},
	}
	// fl_wide: 10 000 users with 8 samples each and a logistic model, so the
	// engine's bookkeeping dominates: per-user model clones at construction,
	// the plan at Q=1e4, sim, FedAvg over 100 uploads.
	flWide = flSpec{
		name: "fl_wide", setting: experiments.IID, seedCycle: 2,
		accFloor: 0.30, quickAccFloor: 0.10,
		preset: func(quick bool) experiments.Preset {
			p := experiments.Paper()
			p.Users, p.TrainN = 10000, 80000
			p.Fraction = 0.01
			p.ModelKind, p.Hidden = "logistic", nil
			p.MaxRounds = 500
			p.EvalEvery = 100
			if quick {
				p.Users, p.TrainN = 1000, 8000
				p.MaxRounds = 50
			}
			return p
		},
	}
)

func newHELCFL(env *experiments.Env) (*selection.HELCFLPlanner, error) {
	p := env.Preset
	return selection.NewHELCFL(env.Devices, env.Channel, env.ModelBits, core.Params{
		Eta: p.Eta, Fraction: p.Fraction, StepsPerRound: p.LocalSteps, Clamp: true,
	})
}

// flConfig is the engine configuration experiments.RunScheme uses for the
// HELCFL scheme.
func flConfig(env *experiments.Env, planner fl.Planner) fl.Config {
	p := env.Preset
	return fl.Config{
		Spec:       env.Spec,
		Devices:    env.Devices,
		Channel:    env.Channel,
		UserData:   env.UserData,
		Test:       env.Synth.Test,
		Planner:    planner,
		LR:         p.LR,
		LocalSteps: p.LocalSteps,
		MaxRounds:  p.MaxRounds,
		EvalEvery:  p.EvalEvery,
		Seed:       env.Seed + 100,
	}
}

// newEngine builds a fresh HELCFL planner and engine over env, with the
// product's own span tracing on when rec is non-nil.
func newEngine(env *experiments.Env, rec *span.Recorder) (*fl.Engine, error) {
	planner, err := newHELCFL(env)
	if err != nil {
		return nil, err
	}
	cfg := flConfig(env, planner)
	cfg.Trace = rec
	return fl.NewEngine(cfg)
}

// engineRun steps an engine to the end of its campaign, timing every Step.
type engineRun struct {
	stepMs []float64
	wallS  float64
	res    *fl.Result
}

func runEngine(eng *fl.Engine, rounds int) (engineRun, error) {
	r := engineRun{stepMs: make([]float64, 0, rounds)}
	for {
		t0 := time.Now()
		ok, err := eng.Step()
		d := time.Since(t0)
		if err != nil {
			return r, err
		}
		if !ok {
			break
		}
		r.stepMs = append(r.stepMs, millis(d))
		r.wallS += d.Seconds()
	}
	r.res = eng.Result()
	return r, nil
}

// checkFLResult verifies a finished campaign: the round count, constraint
// (15) on every assigned frequency and a finite training loss in every
// round, and the accuracy floor.
func checkFLResult(o *outcome, name string, env *experiments.Env, res *fl.Result, floor float64) {
	o.check(len(res.Records) == env.Preset.MaxRounds, "%s: %d round records, want %d", name, len(res.Records), env.Preset.MaxRounds)
	bad := 0
	for _, rec := range res.Records {
		ok := len(rec.Selected) == len(rec.Freqs) && len(rec.Selected) > 0
		for i := 0; ok && i < len(rec.Selected); i++ {
			d := env.Devices[rec.Selected[i]]
			ok = rec.Freqs[i] >= d.FMin*(1-1e-12) && rec.Freqs[i] <= d.FMax*(1+1e-12)
		}
		if !ok || math.IsNaN(rec.TrainLoss) || math.IsInf(rec.TrainLoss, 0) {
			bad++
		}
	}
	o.checkN(len(res.Records), bad, "%s: rounds with a frequency outside [FMin, FMax] or a non-finite loss", name)
	o.check(res.FinalAccuracy >= floor, "%s: final accuracy %.4f under the floor %.2f", name, res.FinalAccuracy, floor)
}

func (s flSpec) floor(quick bool) float64 {
	if quick {
		return s.quickAccFloor
	}
	return s.accFloor
}

func flWorkload(s flSpec) workload {
	return workload{
		name:      s.name,
		seedCycle: s.seedCycle,
		campaign:  s.campaign,
		traced:    s.traced,
	}
}

func (s flSpec) campaign(seed int64, quick bool, o *outcome) (campaign, error) {
	p := s.preset(quick)
	t0 := time.Now()
	env, err := experiments.BuildEnv(p, s.setting, seed)
	if err != nil {
		return campaign{}, err
	}
	eng, err := newEngine(env, nil)
	if err != nil {
		return campaign{}, err
	}
	c := campaign{setupS: time.Since(t0).Seconds(), cells: 1}

	cpu0 := harness.CPUSeconds()
	run, err := runEngine(eng, p.MaxRounds)
	if err != nil {
		return campaign{}, err
	}
	c.cpuS = harness.CPUSeconds() - cpu0
	c.runS, c.roundMs, c.rounds = run.wallS, run.stepMs, len(run.stepMs)
	c.digest = digestModel(run.res.Model)
	checkFLResult(o, s.name, env, run.res, s.floor(quick))
	return c, nil
}

// engineCampaign is one engine campaign of the traced pass, with the
// construction cost and allocation counters the untraced pass does not take.
type engineCampaign struct {
	engineRun
	newEngineS  float64
	heapMB      float64 // live heap once the engine is built
	allocs, raw float64 // mallocs and bytes allocated per round
	digest      uint64
}

func runEngineCampaign(env *experiments.Env, rec *span.Recorder) (*engineCampaign, error) {
	runtime.GC()
	t0 := time.Now()
	eng, err := newEngine(env, rec)
	if err != nil {
		return nil, err
	}
	c := &engineCampaign{newEngineS: time.Since(t0).Seconds()}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.heapMB = float64(before.HeapAlloc) / (1 << 20)
	if c.engineRun, err = runEngine(eng, env.Preset.MaxRounds); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	rounds := float64(len(c.stepMs))
	c.allocs = float64(after.Mallocs-before.Mallocs) / rounds
	c.raw = float64(after.TotalAlloc-before.TotalAlloc) / rounds
	c.digest = digestModel(c.res.Model)
	return c, nil
}

// timeDataset times the two dataset steps of BuildEnv on their own.
func (s flSpec) timeDataset(p experiments.Preset, seed int64, m metrics) {
	spec := p.Spec()
	t0 := time.Now()
	synth := dataset.GenerateSynth(dataset.SynthConfig{
		Classes: p.Classes, C: spec.InC, H: spec.H, W: spec.W,
		TrainN: p.TrainN, TestN: p.TestN, Noise: p.Noise, Seed: seed,
	})
	m["dataset.generate_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	rng := rand.New(rand.NewSource(seed + 1))
	if s.setting == experiments.IID {
		dataset.UserDatasets(synth.Train, dataset.PartitionIID(synth.Train, p.Users, rng))
	} else {
		dataset.UserDatasets(synth.Train, dataset.PartitionNonIID(synth.Train, p.Users, p.Users*p.ShardsPerUser, p.ShardsPerUser, rng))
	}
	m["dataset.partition_s"] = time.Since(t0).Seconds()
}

// traced is the per-layer pass of a whole-round workload. A first engine
// campaign warms the process (the first campaign in a fresh process runs up
// to a third slower than the ones after it, which would read as negative
// tracing overhead); then come a plain campaign (step distribution,
// allocations), one with Config.Trace set (the product's own tracing
// overhead), a bench-owned shadow campaign that replays the round from
// exported functions under spans, and a kernel replay at the local update's
// shapes. All four campaigns run the same seed and must train the same model.
func (s flSpec) traced(seed int64, quick bool, o *outcome, m metrics) ([]span.Rec, error) {
	p := s.preset(quick)
	s.timeDataset(p, seed, m)
	t0 := time.Now()
	env, err := experiments.BuildEnv(p, s.setting, seed)
	if err != nil {
		return nil, err
	}
	m["experiments.build_env.p50_ms"] = millis(time.Since(t0))
	t0 = time.Now()
	if _, err := newHELCFL(env); err != nil {
		return nil, err
	}
	m["selection.new_helcfl_s"] = time.Since(t0).Seconds()

	warm, err := runEngineCampaign(env, nil)
	if err != nil {
		return nil, err
	}
	m["fl.new_engine_s"] = warm.newEngineS
	m["fl.engine.heap_mb_after_setup"] = warm.heapMB
	checkFLResult(o, s.name, env, warm.res, s.floor(quick))
	warm.res = nil

	plain, err := runEngineCampaign(env, nil)
	if err != nil {
		return nil, err
	}
	o.check(plain.digest == warm.digest, "%s: the same seed trained two different models (%016x, %016x)", s.name, warm.digest, plain.digest)
	m["fl.step.allocs_per_round"] = plain.allocs
	m["fl.step.bytes_per_round"] = plain.raw
	steps := harness.Sorted(plain.stepMs)
	setTiming(m, "fl.step.p50_ms", "ms", plain.stepMs)
	m["fl.step.p90_ms"] = harness.Percentile(steps, 90)
	m["fl.step.p99_ms"] = harness.Percentile(steps, 99)
	m["fl.final_accuracy"] = plain.res.FinalAccuracy
	m["sim.delay_s"], m["sim.energy_j"] = plain.res.TotalTime, plain.res.TotalEnergy
	plain.res = nil

	withTrace, err := runEngineCampaign(env, span.NewRecorder(uint64(seed), span.Options{}))
	if err != nil {
		return nil, err
	}
	o.check(withTrace.digest == plain.digest, "%s: Config.Trace changed the trained model", s.name)
	m["fl.step.trace_overhead_pct"] = overheadPct(harness.Median(withTrace.stepMs), harness.Median(plain.stepMs))
	withTrace.res = nil

	// The shadow campaign: the same round, composed by the bench from the
	// layers' exported functions, every call under a span.
	runtime.GC()
	sh, err := newShadow(env, seed)
	if err != nil {
		return nil, err
	}
	if err := sh.run(); err != nil {
		return nil, err
	}
	o.check(sh.digest() == plain.digest, "%s: shadow-round digest %016x differs from the engine's %016x", s.name, sh.digest(), plain.digest)
	recs := sh.spans.Snapshot()
	shadowRounds := harness.DurationsMs(recs, spRound)
	m["fl.shadow_round.coverage_pct"] = harness.CoveragePct(recs, spRound)
	m["fl.shadow_round.vs_step_pct"] = overheadPct(harness.Median(shadowRounds), harness.Median(plain.stepMs))
	m["trace.overhead_pct"] = m["fl.shadow_round.vs_step_pct"]
	o.check(m["fl.shadow_round.coverage_pct"] >= 95, "%s: shadow round attributes only %.1f%% of its time to a layer span", s.name, m["fl.shadow_round.coverage_pct"])

	setTiming(m, "core.plan.p50_ms", "ms", harness.DurationsMs(recs, spPlan))
	setTiming(m, "sim.simulate_round.p50_ms", "ms", harness.DurationsMs(recs, spSim))
	setTiming(m, "fl.train_phase.p50_ms", "ms", harness.DurationsMs(recs, spTrain))
	setTiming(m, "fl.local_update.p50_ms", "ms", harness.DurationsMs(recs, spUpdate))
	setTiming(m, "nn.forward.p50_ms", "ms", harness.DurationsMs(recs, spForward))
	setTiming(m, "nn.backward.p50_ms", "ms", harness.DurationsMs(recs, spBackward))
	setTiming(m, "nn.sgd_step.p50_us", "us", scaled(harness.DurationsMs(recs, spSGD), 1e3))
	setTiming(m, "nn.param_copy.p50_us", "us", scaled(append(harness.DurationsMs(recs, spLoadParams), harness.DurationsMs(recs, spStoreParams)...), 1e3))
	setTiming(m, "fl.fedavg.p50_us", "us", scaled(harness.DurationsMs(recs, spFedAvg), 1e3))
	setTiming(m, "fl.evaluate.p50_ms", "ms", harness.DurationsMs(recs, spEval))
	// FedAvg reads every upload and writes the average once.
	m["fl.fedavg.bytes"] = float64(8 * len(sh.avg) * (sh.cohort + 1))
	var updSum, trainSum float64
	for _, d := range harness.DurationsMs(recs, spUpdate) {
		updSum += d
	}
	for _, d := range harness.DurationsMs(recs, spTrain) {
		trainSum += d
	}
	if trainSum > 0 {
		m["fl.train_phase.parallel_eff"] = updSum / (trainSum * float64(sh.workers))
	}
	layerShares(m, recs, shadowLayers)
	m["core.select.heap_pushes"] = float64(sh.heapPushes)

	// Kernel replay and wire codec at this model's size.
	replayKernels(m, env.Spec, env.UserData[0].N(), m["fl.local_update.p50_ms"], quick)
	codecMetrics(m, env.Spec, quick)
	return recs, nil
}
