package fl

import (
	"math"
	"testing"

	"helcfl/internal/dataset"
	"helcfl/internal/nn"
	"helcfl/internal/sim"
	"helcfl/internal/tensor"
)

// fixedPlanner returns the same preallocated cohort every round, so the
// planner contributes zero allocations to the measured Step. (Production
// planners may allocate their decision slices; that cost is theirs, not the
// engine's.)
type fixedPlanner struct {
	sel   []int
	freqs []float64
}

func (p *fixedPlanner) Name() string                       { return "fixed" }
func (p *fixedPlanner) PlanRound(j int) ([]int, []float64) { return p.sel, p.freqs }

// newFixedPlanner selects every device at FMax.
func newFixedPlanner(env *testEnv) *fixedPlanner {
	sel := make([]int, len(env.devs))
	for i := range sel {
		sel[i] = i
	}
	return &fixedPlanner{sel: sel, freqs: sim.MaxFrequencies(env.devs)}
}

// TestEngineStepZeroAllocs pins zero steady-state heap allocations for a
// full engine round — selection, sim, broadcast, local updates, FedAvg —
// with the observability and eval paths off (nil Sink/Trace, EvalEvery
// beyond the horizon), exactly the configuration the performance doc
// promises is allocation-free. Warm-up rounds grow the engine scratch and
// the trainer's layer scratch to the largest |D_q| of the mixed-size fleet
// first; after that every user reslices it.
func TestEngineStepZeroAllocs(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

	env := newTestEnv(t, 7, 6)
	cfg := baseConfig(env, newFixedPlanner(env))
	cfg.MaxRounds = 1000
	cfg.EvalEvery = 1 << 30 // only round 0 evaluates
	if n := steadyStepAllocs(t, cfg); n != 0 {
		t.Errorf("steady-state engine Step allocates %v times, want 0", n)
	}
}

// steadyStepAllocs builds an engine, runs three warm-up rounds (they grow
// all scratch and run the round-0 evaluation) and returns the mean heap
// allocations of a further Step.
func steadyStepAllocs(t *testing.T, cfg Config) float64 {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if ok, err := e.Step(); !ok || err != nil {
			t.Fatalf("warm-up step %d: ok=%v err=%v", i, ok, err)
		}
	}
	n := testing.AllocsPerRun(10, func() {
		if ok, err := e.Step(); !ok || err != nil {
			t.Fatalf("measured step: ok=%v err=%v", ok, err)
		}
	})
	return n
}

// TestEngineStepZeroAllocsQuantized repeats the gate with both wire-format
// knobs on: broadcast and upload float32 round-trips must reuse the
// engine's quantization buffers.
func TestEngineStepZeroAllocsQuantized(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

	env := newTestEnv(t, 8, 5)
	cfg := baseConfig(env, newFixedPlanner(env))
	cfg.MaxRounds = 1000
	cfg.EvalEvery = 1 << 30
	cfg.QuantizeBroadcast = true
	cfg.QuantizeUploads = true
	if n := steadyStepAllocs(t, cfg); n != 0 {
		t.Errorf("quantized engine Step allocates %v times, want 0", n)
	}
}

// TestEngineStepZeroAllocsEval extends the gate to rounds that evaluate:
// the evaluator's chunk inputs, logits buffer and batch views are built on
// the first evaluation and reused, the loss is reused, and the one worker
// forwards on trainer 0, whose scratch the warm-up grew to the larger of a
// user's |D_q| and a 256-row chunk. The 300-row test set makes two loss
// batches of different sizes. The gate runs at one worker because above
// one, tensor.Shard allocates its closures and goroutines for every
// sharded kernel call, in training as in evaluation.
func TestEngineStepZeroAllocsEval(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

	for _, spec := range poolSpecs {
		t.Run(spec.Kind, func(t *testing.T) {
			env := newSizedEnv(t, 7, []int{12, 5, 9}, spec)
			env.test = testRows(spec, 300, 8)
			cfg := baseConfig(env, newFixedPlanner(env))
			cfg.MaxRounds = 1000
			cfg.EvalEvery = 1
			if n := steadyStepAllocs(t, cfg); n != 0 {
				t.Errorf("evaluated engine Step allocates %v times, want 0", n)
			}
		})
	}
}

// poolSpecs are the model kinds the pool tests train: a dense model with a
// ReLU and the convolutional one.
var poolSpecs = []nn.ModelSpec{
	{Kind: "mlp", InC: 2, H: 8, W: 8, Classes: 4, Hidden: []int{16}},
	{Kind: "squeezenet-mini", InC: 2, H: 8, W: 8, Classes: 4},
}

// testRows draws an n-row test set shaped for spec.
func testRows(spec nn.ModelSpec, n int, seed int64) *dataset.Dataset {
	return dataset.GenerateSynth(dataset.SynthConfig{
		Classes: spec.Classes, C: spec.InC, H: spec.H, W: spec.W,
		TrainN: 1, TestN: n, Noise: 0.6, Seed: seed,
	}).Test
}

// TestEngineWorkerPoolMatchesInline pins that the persistent worker pool
// produces the bit-identical training trajectory to the inline serial path:
// same records, same final parameters, for several worker counts. The fleet
// is heterogeneous in |D_q| and Non-IID, and the cohort rotates, so which
// trainer serves which user — and in what size order — differs with the
// worker count and the scheduler: any scratch leaking from one user's
// update into the next would split the trajectories. Every round also
// evaluates on the pool, on a 517-row test set: it crosses the 256-row
// loss batches and no worker count divides it, so each count cuts its
// chunks and ranges differently (at eight, the five-user cohort caps the
// pool, and so the evaluation, at five workers). The last record's test metrics must
// equal public Evaluate's on the final model. Run under -race this also
// proves the pool's round synchronization is sound.
func TestEngineWorkerPoolMatchesInline(t *testing.T) {
	for _, spec := range poolSpecs {
		t.Run(spec.Kind, func(t *testing.T) { testWorkerPoolMatchesInline(t, spec) })
	}
}

func testWorkerPoolMatchesInline(t *testing.T, spec nn.ModelSpec) {
	runCampaign := func(workers int) *Result {
		prev := tensor.SetWorkers(workers)
		defer tensor.SetWorkers(prev)
		env := newSizedEnv(t, 9, []int{31, 6, 18, 3, 25, 11, 18, 8}, spec)
		env.test = testRows(spec, 517, 10)
		cfg := baseConfig(env, roundRobinPlanner(env.devs, 5))
		cfg.MaxRounds = 6
		cfg.EvalEvery = 1
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	sameRecords := func(got, want []RoundRecord) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("executed %d rounds, want %d", len(got), len(want))
		}
		f64 := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		for i := range got {
			g, w := got[i], want[i]
			if !f64(g.TrainLoss, w.TrainLoss) || !f64(g.Delay, w.Delay) ||
				!f64(g.Energy, w.Energy) || !f64(g.CumTime, w.CumTime) ||
				!f64(g.CumEnergy, w.CumEnergy) || !f64(g.TestLoss, w.TestLoss) ||
				!f64(g.TestAccuracy, w.TestAccuracy) || g.Failed != w.Failed {
				t.Fatalf("round %d diverges: got %+v want %+v", i, g, w)
			}
		}
	}

	want := runCampaign(1)
	wantFlat := want.Model.GetFlatParams()
	last := want.Records[len(want.Records)-1]
	loss, acc := Evaluate(want.Model, testRows(spec, 517, 10), spec.FlattensInput())
	if math.Float64bits(loss) != math.Float64bits(last.TestLoss) || math.Float64bits(acc) != math.Float64bits(last.TestAccuracy) {
		t.Fatalf("Evaluate on the final model = (%v, %v), last record (%v, %v)", loss, acc, last.TestLoss, last.TestAccuracy)
	}
	for _, w := range []int{2, 4, 8} {
		got := runCampaign(w)
		sameRecords(got.Records, want.Records)
		gotFlat := got.Model.GetFlatParams()
		for i := range wantFlat {
			if math.Float64bits(gotFlat[i]) != math.Float64bits(wantFlat[i]) {
				t.Fatalf("workers=%d: final param %d = %g, want %g", w, i, gotFlat[i], wantFlat[i])
			}
		}
	}
}
