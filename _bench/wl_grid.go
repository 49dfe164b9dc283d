package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"time"

	"helcfl/_bench/harness"
	"helcfl/internal/experiments"
	"helcfl/internal/fl"
	"helcfl/internal/grid"
	"helcfl/internal/obs/span"
)

// grid_tiny_all: the registry's "all" experiment on the tiny preset — about
// fifty cells, many short engines, a few dozen environment builds, the SL
// baseline, plan dedup and assembly — run by grid.Runner on every core and
// rendered. grid/experiments scheduling and per-cell set-up matter here and
// nowhere else.
var gridWorkload = workload{
	name:      "grid_tiny_all",
	seedCycle: 1, // every repetition runs the same seed and must render the same bytes
	campaign:  gridCampaign,
	traced:    gridTraced,
}

// gridExperiment is the registry entry a repetition runs; the smoke mode
// runs one panel instead of the whole campaign, on a third of the rounds.
func gridExperiment(quick bool) string {
	if quick {
		return "fig2"
	}
	return "all"
}

func gridPreset(quick bool) experiments.Preset {
	p := experiments.Tiny()
	if quick {
		p.MaxRounds = 20
	}
	return p
}

// engineTotals is what a cell's result says about the FL engines it ran.
type engineTotals struct {
	rounds          int
	delayS, energyJ float64
	engines         int
	accuracySum     float64
}

var flResultType = reflect.TypeOf(fl.Result{})

// walkResults finds every fl.Result reachable from a cell result. Cell
// results are unexported structs of the experiments package, so this is the
// only way to count rounds from outside; it follows structs, pointers,
// interfaces, maps and slices of those, and stops at an fl.Result.
func walkResults(v reflect.Value, t *engineTotals) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			walkResults(v.Elem(), t)
		}
	case reflect.Struct:
		if v.Type() == flResultType {
			t.engines++
			t.rounds += v.FieldByName("Records").Len()
			t.delayS += v.FieldByName("TotalTime").Float()
			t.energyJ += v.FieldByName("TotalEnergy").Float()
			t.accuracySum += v.FieldByName("FinalAccuracy").Float()
			return
		}
		for i := 0; i < v.NumField(); i++ {
			walkResults(v.Field(i), t)
		}
	case reflect.Slice, reflect.Array:
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Map:
			for i := 0; i < v.Len(); i++ {
				walkResults(v.Index(i), t)
			}
		}
	case reflect.Map:
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice:
			// Visit in key order: the float sums must not depend on Go's
			// randomized map iteration.
			keys := v.MapKeys()
			sort.Slice(keys, func(a, b int) bool { return fmt.Sprint(keys[a]) < fmt.Sprint(keys[b]) })
			for _, k := range keys {
				walkResults(v.MapIndex(k), t)
			}
		}
	}
}

// gridPlanBuilds is how many times a repetition builds its plan to time it.
const gridPlanBuilds = 501

// gridRep is one repetition of the campaign.
type gridRep struct {
	planS, runS, renderS float64
	cellMs               []float64 // per cell, in plan order
	totals               []engineTotals
	rendered             [sha256.Size]byte
	cells                int
}

// runGridRep plans, runs and renders the campaign once. rec, when non-nil,
// receives a span per phase and per cell.
func runGridRep(seed int64, quick bool, parallel int, rec *span.Recorder) (*gridRep, error) {
	def, ok := experiments.LookupExperiment(gridExperiment(quick))
	if !ok {
		return nil, fmt.Errorf("grid: experiment %q is not registered", gridExperiment(quick))
	}
	rep := &gridRep{}
	root := rec.Start(rec.Root(), spGridRep)
	defer root.End()

	// Building the plan takes well under a millisecond, too little for one
	// reading to repeat; build it many times and keep the median.
	sp := rec.Start(root.Ref(), spGridPlan)
	var plan *experiments.Plan
	builds := make([]float64, gridPlanBuilds)
	for i := range builds {
		t0 := time.Now()
		p, err := def.Plan(gridPreset(quick), seed, experiments.Options{})
		builds[i] = time.Since(t0).Seconds()
		if err != nil {
			sp.End()
			return nil, err
		}
		plan = p
	}
	rep.planS = harness.Median(builds)
	sp.End()
	rep.cells = len(plan.Cells)
	rep.cellMs = make([]float64, len(plan.Cells))

	// Wrap every cell to time it from outside. The key, and with it the
	// plan's dedup and the cell's RNG, is untouched.
	cells := append([]grid.Cell(nil), plan.Cells...)
	campaign := rec.Start(root.Ref(), spGridCampaign)
	for i := range cells {
		i, run := i, cells[i].Run
		cells[i].Run = func(ctx context.Context, rng *rand.Rand) (any, error) {
			cs := rec.Start(campaign.Ref(), spGridCell)
			t := time.Now()
			v, err := run(ctx, rng)
			rep.cellMs[i] = millis(time.Since(t))
			cs.End()
			return v, err
		}
	}
	t0 := time.Now()
	res, err := (&grid.Runner{Parallel: parallel}).Run(context.Background(), cells)
	rep.runS = time.Since(t0).Seconds()
	campaign.End()
	if err != nil {
		return nil, err
	}

	sp = rec.Start(root.Ref(), spGridRender)
	t0 = time.Now()
	h := sha256.New()
	err = plan.Render(res, experiments.Output{W: h})
	rep.renderS = time.Since(t0).Seconds()
	sp.End()
	if err != nil {
		return nil, err
	}
	copy(rep.rendered[:], h.Sum(nil))

	rep.totals = make([]engineTotals, len(res))
	for i, v := range res {
		walkResults(reflect.ValueOf(v), &rep.totals[i])
	}
	return rep, nil
}

func gridCampaign(seed int64, quick bool, o *outcome) (campaign, error) {
	experiments.ResetEnvCache()
	runtime.GC()
	cpu0 := harness.CPUSeconds()
	rep, err := runGridRep(seed, quick, 0, nil)
	cpu := harness.CPUSeconds() - cpu0
	if err != nil {
		// A CellError fails the run outright: nothing to measure.
		return campaign{}, err
	}
	c := campaign{
		setupS: rep.planS,
		runS:   rep.runS + rep.renderS,
		cpuS:   cpu,
		cells:  rep.cells,
		digest: binary.LittleEndian.Uint64(rep.rendered[:8]),
	}
	for i, t := range rep.totals {
		c.rounds += t.rounds
		if t.rounds > 0 {
			c.roundMs = append(c.roundMs, rep.cellMs[i]/float64(t.rounds))
		}
	}
	o.checkN(rep.cells, 0, "grid_tiny_all: cells that returned a CellError")
	o.check(c.rounds > 0, "grid_tiny_all: no cell reported an engine round")
	return c, nil
}

const (
	spGridRep      = "grid.rep"
	spGridPlan     = "grid.experiments.plan"
	spGridCampaign = "grid.grid.campaign"
	spGridCell     = "grid.experiments.cell"
	spGridRender   = "grid.experiments.render"
)

// A cell's body (environment build, engines, assembly) belongs to the
// experiments package and cannot be split further from outside; the campaign
// span's self time is what grid.Runner spends not running cells.
var gridLayers = map[string]string{
	spGridRep: "harness", spGridPlan: "experiments", spGridCampaign: "grid",
	spGridCell: "experiments", spGridRender: "experiments",
}

func gridTraced(seed int64, quick bool, o *outcome, m metrics) ([]span.Rec, error) {
	workers := (&grid.Runner{}).Workers(1 << 30)

	// Plain reference repetition, cold cache.
	experiments.ResetEnvCache()
	runtime.GC()
	plain, err := runGridRep(seed, quick, 0, nil)
	if err != nil {
		return nil, err
	}

	// One more without the reset: what the environment cache saves.
	warm, err := runGridRep(seed, quick, 0, nil)
	if err != nil {
		return nil, err
	}
	m["experiments.env_cache.warm_campaign_s"] = warm.runS
	o.check(warm.rendered == plain.rendered, "grid_tiny_all: warm-cache repetition rendered different bytes")

	// Traced repetition, cold cache.
	experiments.ResetEnvCache()
	runtime.GC()
	coll := &span.Collector{}
	rec := span.NewRecorder(uint64(seed), span.Options{Capacity: 1, Exporter: coll})
	traced, err := runGridRep(seed, quick, 0, rec)
	if err != nil {
		return nil, err
	}
	o.check(traced.rendered == plain.rendered, "grid_tiny_all: traced repetition rendered different bytes")
	recs := coll.Snapshot()
	m["experiments.plan_build_ms"] = traced.planS * 1e3
	m["experiments.render_ms"] = traced.renderS * 1e3
	setTiming(m, "grid.cell.p50_ms", "ms", traced.cellMs)
	m["grid.cell.max_ms"] = harness.Percentile(harness.Sorted(traced.cellMs), 100)
	m["grid.cell.count"] = float64(traced.cells)
	var busy float64
	for _, ms := range traced.cellMs {
		busy += ms / 1e3
	}
	m["grid.worker_busy_pct"] = 100 * busy / (traced.runS * float64(workers))
	m["trace.overhead_pct"] = overheadPct(traced.runS, plain.runS)
	layerShares(m, recs, gridLayers)
	var acc float64
	engines := 0
	for _, t := range traced.totals {
		acc += t.accuracySum
		engines += t.engines
		m["sim.delay_s"] += t.delayS
		m["sim.energy_j"] += t.energyJ
	}
	if engines > 0 {
		m["fl.final_accuracy"] = acc / float64(engines)
	}

	// Serial repetition, cold cache: what the worker pool buys.
	experiments.ResetEnvCache()
	runtime.GC()
	serial, err := runGridRep(seed, quick, 1, nil)
	if err != nil {
		return nil, err
	}
	o.check(serial.rendered == plain.rendered, "grid_tiny_all: serial repetition rendered different bytes")
	m["grid.serial_campaign_s"] = serial.runS
	m["grid.scaling_eff"] = serial.runS / (plain.runS * float64(workers))

	// Environment builds, timed directly for the preset's two settings.
	var envMs []float64
	for i := 0; i < 5; i++ {
		for _, s := range []experiments.Setting{experiments.IID, experiments.NonIID} {
			t0 := time.Now()
			if _, err := experiments.BuildEnv(gridPreset(quick), s, seed+int64(i)); err != nil {
				return nil, err
			}
			envMs = append(envMs, millis(time.Since(t0)))
		}
	}
	setTiming(m, "experiments.build_env.p50_ms", "ms", envMs)
	return recs, nil
}
