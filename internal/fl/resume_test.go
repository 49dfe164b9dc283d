package fl_test

// Engine checkpoint/resume conformance: an engine snapshotted at an
// arbitrary round boundary and restored into a fresh process-equivalent
// (new planner, new clients, new RNG) must finish the campaign with a
// trajectory — every RoundRecord field, the final model, the exit flags —
// bit-identical to the engine that never stopped. This is the in-process
// half of the ISSUE 3 acceptance bar; internal/deploy covers the
// networked half.

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"helcfl/internal/core"
	"helcfl/internal/dataset"
	"helcfl/internal/device"
	"helcfl/internal/fl"
	"helcfl/internal/nn"
	"helcfl/internal/selection"
	"helcfl/internal/wireless"
)

// resumeEnv rebuilds an identical campaign config with a fresh planner per
// engine, exactly as a restarted process would.
type resumeEnv struct {
	spec     nn.ModelSpec
	userData []*dataset.Dataset
	test     *dataset.Dataset
	users    int
	rounds   int
}

func newResumeEnv(t *testing.T) *resumeEnv {
	t.Helper()
	const users = 8
	synth := dataset.GenerateSynth(dataset.SynthConfig{
		Classes: 3, C: 1, H: 4, W: 4, TrainN: 24 * users, TestN: 60, Noise: 0.8, Seed: 21,
	})
	part := dataset.PartitionIID(synth.Train, users, rand.New(rand.NewSource(22)))
	return &resumeEnv{
		spec:     nn.ModelSpec{Kind: "logistic", InC: 1, H: 4, W: 4, Classes: 3},
		userData: dataset.UserDatasets(synth.Train, part),
		test:     synth.Test,
		users:    users,
		rounds:   10,
	}
}

func (e *resumeEnv) devices() []*device.Device {
	rng := rand.New(rand.NewSource(23))
	devs := make([]*device.Device, e.users)
	for q := range devs {
		devs[q] = &device.Device{
			ID:              q,
			NumSamples:      e.userData[q].N(),
			FMin:            device.DefaultFMin,
			FMax:            device.FMaxLow + (device.FMaxHigh-device.FMaxLow)*rng.Float64(),
			CyclesPerSample: device.DefaultCyclesPerSample,
			Kappa:           device.DefaultKappa,
			TxPower:         0.2,
			ChannelGain:     0.5 + rng.Float64(),
		}
	}
	return devs
}

// config builds the full fault-exercising campaign: dropout draws consume
// the RNG stream, batteries exercise the energy ledger, block fading
// exercises the per-round gain path.
func (e *resumeEnv) config(t *testing.T) fl.Config {
	t.Helper()
	devs := e.devices()
	planner, err := selection.NewHELCFL(devs, wireless.DefaultChannel(), 2e5, core.Params{
		Eta: 0.7, Fraction: 0.4, StepsPerRound: 1, Clamp: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fl.Config{
		Spec:             e.spec,
		Devices:          devs,
		Channel:          wireless.DefaultChannel(),
		UserData:         e.userData,
		Test:             e.test,
		Planner:          planner,
		LR:               0.3,
		LocalSteps:       1,
		MaxRounds:        e.rounds,
		DropoutProb:      0.2,
		BatteryCapacityJ: 40,
		Gains:            wireless.BlockFading{Sigma: 0.4, Seed: 31},
		Seed:             77,
	}
}

func recordsBitEqual(t *testing.T, got, want []fl.RoundRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("executed %d rounds, want %d", len(got), len(want))
	}
	f64eq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range want {
		g, w := got[i], want[i]
		switch {
		case g.Round != w.Round, g.Failed != w.Failed, g.AliveDevices != w.AliveDevices,
			g.Evaluated != w.Evaluated, len(g.Selected) != len(w.Selected):
			t.Fatalf("round %d: structural mismatch: got %+v want %+v", i, g, w)
		}
		for k := range w.Selected {
			if g.Selected[k] != w.Selected[k] || !f64eq(g.Freqs[k], w.Freqs[k]) {
				t.Fatalf("round %d: selection/frequency mismatch at slot %d", i, k)
			}
		}
		for _, pair := range [][2]float64{
			{g.Delay, w.Delay}, {g.Energy, w.Energy}, {g.ComputeEnergy, w.ComputeEnergy},
			{g.UploadEnergy, w.UploadEnergy}, {g.Slack, w.Slack}, {g.CumTime, w.CumTime},
			{g.CumEnergy, w.CumEnergy}, {g.TrainLoss, w.TrainLoss},
			{g.TestLoss, w.TestLoss}, {g.TestAccuracy, w.TestAccuracy},
		} {
			if !f64eq(pair[0], pair[1]) {
				t.Fatalf("round %d: float field diverges: %v vs %v", i, pair[0], pair[1])
			}
		}
	}
}

func modelsBitEqual(t *testing.T, got, want *nn.Sequential) {
	t.Helper()
	g, w := got.GetFlatParams(), want.GetFlatParams()
	if len(g) != len(w) {
		t.Fatalf("param counts differ: %d vs %d", len(g), len(w))
	}
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("model param %d diverges: %v vs %v", i, g[i], w[i])
		}
	}
}

// TestEngineResumeBitIdentical snapshots at several distinct round
// boundaries — early, middle, and at the final round — serializes the state
// through the binary codec, restores into a fresh engine, and requires the
// completed campaign to be indistinguishable from the uninterrupted one.
func TestEngineResumeBitIdentical(t *testing.T) {
	env := newResumeEnv(t)
	ref, err := fl.Run(env.config(t))
	if err != nil {
		t.Fatal(err)
	}

	for _, split := range []int{1, 4, 7, env.rounds - 1} {
		split := split
		t.Run(map[bool]string{true: "mid", false: "late"}[split < env.rounds/2]+"-split", func(t *testing.T) {
			eng, err := fl.NewEngine(env.config(t))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close() // abandoned mid-campaign: the "crash"
			for i := 0; i < split; i++ {
				if ok, err := eng.Step(); err != nil || !ok {
					t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
				}
			}
			st, err := eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			// The snapshot must survive its binary codec (the checkpoint file
			// payload) exactly.
			raw, err := st.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			st2, err := fl.UnmarshalEngineState(raw)
			if err != nil {
				t.Fatal(err)
			}

			resumed, err := fl.RestoreEngine(env.config(t), st2)
			if err != nil {
				t.Fatal(err)
			}
			back, err := resumed.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if back.Round != split {
				t.Fatalf("resumed at round %d, want %d", back.Round, split)
			}
			finishBitEqual(t, resumed, ref)
		})
	}
}

// finishBitEqual steps eng to the end of its campaign and requires the
// result to be bit-identical to ref, the uninterrupted run.
func finishBitEqual(t *testing.T, eng *fl.Engine, ref *fl.Result) {
	t.Helper()
	for {
		ok, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	res := eng.Result()
	recordsBitEqual(t, res.Records, ref.Records)
	modelsBitEqual(t, res.Model, ref.Model)
	if res.FinalAccuracy != ref.FinalAccuracy || res.BestAccuracy != ref.BestAccuracy ||
		res.TotalTime != ref.TotalTime || res.TotalEnergy != ref.TotalEnergy ||
		res.StoppedByDeadline != ref.StoppedByDeadline || res.HaltedByDeadFleet != ref.HaltedByDeadFleet {
		t.Fatalf("result roll-up diverges: %+v vs %+v", res, ref)
	}
}

// parentEngineState is EngineState as checkpoints written before the
// convergence exits were removed encode it: it also carries the
// loss-plateau bookkeeping and the two exit flags those exits set.
type parentEngineState struct {
	Round                       int
	RNGUsed                     uint64
	GlobalParams                []float64
	CumTime, CumEnergy          float64
	BestLossBits                uint64
	SinceImproved               int
	SpentJ                      []float64
	Records                     []fl.RoundRecord
	BestAccuracy, FinalAccuracy float64
	StoppedByDeadline           bool
	ReachedTarget               bool
	Converged                   bool
	HaltedByDeadFleet           bool
	Stopped                     bool
	PlannerState                []byte
}

// TestEngineResumesParentShapedState pins checkpoint compatibility: a
// state gob-encoded with the old fields decodes, restores, and finishes the
// campaign bit-identically to the live run.
func TestEngineResumesParentShapedState(t *testing.T) {
	env := newResumeEnv(t)
	ref, err := fl.Run(env.config(t))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fl.NewEngine(env.config(t))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const split = 4
	for i := 0; i < split; i++ {
		if ok, err := eng.Step(); err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	st, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The values a campaign without the convergence exits wrote: no loss
	// tracked (+Inf), no patience spent, neither exit fired.
	old := parentEngineState{
		Round: st.Round, RNGUsed: st.RNGUsed, GlobalParams: st.GlobalParams,
		CumTime: st.CumTime, CumEnergy: st.CumEnergy,
		BestLossBits: math.Float64bits(math.Inf(1)), SinceImproved: 0,
		SpentJ: st.SpentJ, Records: st.Records,
		BestAccuracy: st.BestAccuracy, FinalAccuracy: st.FinalAccuracy,
		StoppedByDeadline: st.StoppedByDeadline, ReachedTarget: false, Converged: false,
		HaltedByDeadFleet: st.HaltedByDeadFleet, Stopped: st.Stopped,
		PlannerState: st.PlannerState,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	st2, err := fl.UnmarshalEngineState(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := fl.RestoreEngine(env.config(t), st2)
	if err != nil {
		t.Fatal(err)
	}
	finishBitEqual(t, resumed, ref)
}

// TestRestoreEngineRejectsMismatchedState pins the defensive checks: a
// snapshot from a different fleet or model shape must be refused, and
// planner state must not be silently dropped.
func TestRestoreEngineRejectsMismatchedState(t *testing.T) {
	env := newResumeEnv(t)
	eng, err := fl.NewEngine(env.config(t))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	st, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("wrong-model-shape", func(t *testing.T) {
		cfg := env.config(t)
		cfg.Spec = nn.ModelSpec{Kind: "mlp", InC: 1, H: 4, W: 4, Classes: 3, Hidden: []int{8}}
		if _, err := fl.RestoreEngine(cfg, st); err == nil {
			t.Fatal("mismatched model shape accepted")
		}
	})
	t.Run("wrong-fleet-size", func(t *testing.T) {
		cfg := env.config(t)
		bad := *st
		bad.SpentJ = bad.SpentJ[:len(bad.SpentJ)-1]
		if _, err := fl.RestoreEngine(cfg, &bad); err == nil {
			t.Fatal("mismatched fleet size accepted")
		}
	})
	t.Run("round-out-of-budget", func(t *testing.T) {
		cfg := env.config(t)
		bad := *st
		bad.Round = cfg.MaxRounds + 5
		if _, err := fl.RestoreEngine(cfg, &bad); err == nil {
			t.Fatal("out-of-budget round accepted")
		}
	})
	t.Run("nil-state", func(t *testing.T) {
		if _, err := fl.RestoreEngine(env.config(t), nil); err == nil {
			t.Fatal("nil state accepted")
		}
	})
}
