package fl

import (
	"math"
	"math/rand"
	"testing"

	"helcfl/internal/dataset"
	"helcfl/internal/device"
	"helcfl/internal/nn"
	"helcfl/internal/sim"
	"helcfl/internal/wireless"
)

// testEnv builds a small, fast FL environment: 8 users, synthetic 4-class
// data, a logistic model.
type testEnv struct {
	devs  []*device.Device
	ch    wireless.Channel
	users []*dataset.Dataset
	test  *dataset.Dataset
	spec  nn.ModelSpec
}

func newTestEnv(t *testing.T, seed int64, users int) *testEnv {
	t.Helper()
	synth := dataset.GenerateSynth(dataset.SynthConfig{
		Classes: 4, C: 2, H: 4, W: 4, TrainN: 160, TestN: 80, Noise: 0.6, Seed: seed,
	})
	rng := rand.New(rand.NewSource(seed))
	cfg := device.DefaultCatalogConfig()
	cfg.Q = users
	devs := device.NewCatalog(cfg, rng)
	part := dataset.PartitionIID(synth.Train, users, rng)
	ud := dataset.UserDatasets(synth.Train, part)
	for q, d := range devs {
		d.NumSamples = ud[q].N()
	}
	return &testEnv{
		devs:  devs,
		ch:    wireless.DefaultChannel(),
		users: ud,
		test:  synth.Test,
		spec:  nn.ModelSpec{Kind: "logistic", InC: 2, H: 4, W: 4, Classes: 4},
	}
}

// allUsersPlanner selects every user at max frequency — the degenerate
// planner that makes FL equal centralized GD (Eq. 19).
func allUsersPlanner(devs []*device.Device) Planner {
	return &Composed{
		Label:   "all",
		Devices: devs,
		Select: func(j int) []int {
			sel := make([]int, len(devs))
			for i := range sel {
				sel[i] = i
			}
			return sel
		},
		Frequencies: sim.MaxFrequencies,
	}
}

func baseConfig(env *testEnv, planner Planner) Config {
	return Config{
		Spec:       env.spec,
		Devices:    env.devs,
		Channel:    env.ch,
		UserData:   env.users,
		Test:       env.test,
		Planner:    planner,
		LR:         0.3,
		LocalSteps: 1,
		MaxRounds:  20,
		EvalEvery:  1,
		Seed:       42,
	}
}

func TestFedAvgWeightedMean(t *testing.T) {
	got := fedAvg([][]float64{{1, 2}, {4, 8}}, []int{1, 3})
	want := []float64{(1 + 3*4) / 4.0, (2 + 3*8) / 4.0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("FedAvg[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestFedAvgValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":           func() { FedAvgInto(nil, nil, nil) },
		"weight mismatch": func() { FedAvgInto(make([]float64, 1), [][]float64{{1}}, []int{1, 2}) },
		"length mismatch": func() { FedAvgInto(make([]float64, 1), [][]float64{{1}, {1, 2}}, []int{1, 1}) },
		"zero weight":     func() { FedAvgInto(make([]float64, 1), [][]float64{{1}, {2}}, []int{1, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// The paper's Eq. (19): one FL round over selected users with one GD step
// each, aggregated by FedAvg, is exactly one centralized GD step on the
// union of their data. This is the identity HELCFL's analysis rests on.
func TestFedAvgEquivalentToCentralizedGD(t *testing.T) {
	env := newTestEnv(t, 1, 4)
	rng := rand.New(rand.NewSource(7))
	global := env.spec.Build(rng)
	globalFlat := global.GetFlatParams()
	lr := 0.2

	// Federated: each user takes one GD step from the same global params.
	uploads := make([][]float64, len(env.users))
	weights := make([]int, len(env.users))
	for q, d := range env.users {
		c := NewClient(q, d, global.Clone(), true)
		flat, _ := c.LocalUpdate(globalFlat, lr, 1)
		uploads[q] = flat
		weights[q] = d.N()
	}
	fedFlat := fedAvg(uploads, weights)

	// Centralized: one GD step on the union of the users' data. env.users
	// was produced by an IID partition of synth.Train covering every sample
	// exactly once, so the union equals the full train set up to ordering,
	// and full-batch GD is order-invariant.
	synth := dataset.GenerateSynth(dataset.SynthConfig{
		Classes: 4, C: 2, H: 4, W: 4, TrainN: 160, TestN: 80, Noise: 0.6, Seed: 1,
	})
	central := global.Clone()
	cc := NewClient(0, synth.Train, central, true)
	centralFlat, _ := cc.LocalUpdate(globalFlat, lr, 1)

	if len(fedFlat) != len(centralFlat) {
		t.Fatal("parameter vectors misaligned")
	}
	for i := range fedFlat {
		if math.Abs(fedFlat[i]-centralFlat[i]) > 1e-9 {
			t.Fatalf("Eq.19 violated at param %d: fed %g vs central %g", i, fedFlat[i], centralFlat[i])
		}
	}
}

func TestRunTrainsToUsefulAccuracy(t *testing.T) {
	env := newTestEnv(t, 2, 8)
	cfg := baseConfig(env, allUsersPlanner(env.devs))
	cfg.MaxRounds = 60
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 60 {
		t.Fatalf("records = %d", len(res.Records))
	}
	if res.BestAccuracy < 0.6 {
		t.Fatalf("best accuracy = %g, training is broken", res.BestAccuracy)
	}
	first := res.Records[0]
	last := res.Records[len(res.Records)-1]
	if last.TrainLoss >= first.TrainLoss {
		t.Fatalf("train loss did not decrease: %g → %g", first.TrainLoss, last.TrainLoss)
	}
}

func TestRunRecordsAccumulate(t *testing.T) {
	env := newTestEnv(t, 3, 6)
	res, err := Run(baseConfig(env, allUsersPlanner(env.devs)))
	if err != nil {
		t.Fatal(err)
	}
	var time, energy float64
	for i, r := range res.Records {
		if r.Round != i {
			t.Fatalf("round index %d at position %d", r.Round, i)
		}
		time += r.Delay
		energy += r.Energy
		if math.Abs(r.CumTime-time) > 1e-9 || math.Abs(r.CumEnergy-energy) > 1e-9 {
			t.Fatalf("round %d: cumulative accounting drifted", i)
		}
		if r.Delay <= 0 || r.Energy <= 0 {
			t.Fatalf("round %d: non-positive costs", i)
		}
	}
	if math.Abs(res.TotalTime-time) > 1e-9 || math.Abs(res.TotalEnergy-energy) > 1e-9 {
		t.Fatal("result totals disagree with records")
	}
}

func TestRunDeadlineStops(t *testing.T) {
	env := newTestEnv(t, 4, 6)
	cfg := baseConfig(env, allUsersPlanner(env.devs))
	cfg.MaxRounds = 1000
	// One round costs ≥ the fastest user's compute+upload; a tiny deadline
	// must stop the run almost immediately.
	cfg.DeadlineSec = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.StoppedByDeadline {
		t.Fatal("deadline exit did not fire")
	}
	if len(res.Records) == 1000 {
		t.Fatal("run ignored the deadline")
	}
	last := res.Records[len(res.Records)-1]
	if !last.Evaluated {
		t.Fatal("final round must be evaluated on early exit")
	}
}

func TestRunEvalEvery(t *testing.T) {
	env := newTestEnv(t, 6, 6)
	cfg := baseConfig(env, allUsersPlanner(env.devs))
	cfg.MaxRounds = 10
	cfg.EvalEvery = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Records {
		wantEval := r.Round%3 == 0 || r.Round == 9
		if r.Evaluated != wantEval {
			t.Fatalf("round %d evaluated=%v, want %v", r.Round, r.Evaluated, wantEval)
		}
	}
}

func TestRunDeterministicAcrossSeeds(t *testing.T) {
	env1 := newTestEnv(t, 7, 6)
	r1, err := Run(baseConfig(env1, allUsersPlanner(env1.devs)))
	if err != nil {
		t.Fatal(err)
	}
	env2 := newTestEnv(t, 7, 6)
	r2, err := Run(baseConfig(env2, allUsersPlanner(env2.devs)))
	if err != nil {
		t.Fatal(err)
	}
	if r1.FinalAccuracy != r2.FinalAccuracy || r1.TotalEnergy != r2.TotalEnergy {
		t.Fatal("same seeds must reproduce the run exactly")
	}
}

func TestRunQuantizedUploadsClose(t *testing.T) {
	env := newTestEnv(t, 8, 6)
	cfg := baseConfig(env, allUsersPlanner(env.devs))
	cfg.MaxRounds = 15
	exact, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env2 := newTestEnv(t, 8, 6)
	cfg2 := baseConfig(env2, allUsersPlanner(env2.devs))
	cfg2.MaxRounds = 15
	cfg2.QuantizeUploads = true
	quant, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.FinalAccuracy-quant.FinalAccuracy) > 0.1 {
		t.Fatalf("float32 uploads changed accuracy too much: %g vs %g",
			exact.FinalAccuracy, quant.FinalAccuracy)
	}
}

func TestRunConfigValidation(t *testing.T) {
	env := newTestEnv(t, 9, 4)
	good := baseConfig(env, allUsersPlanner(env.devs))
	for name, mutate := range map[string]func(*Config){
		"no devices":  func(c *Config) { c.Devices = nil; c.UserData = nil },
		"no planner":  func(c *Config) { c.Planner = nil },
		"bad lr":      func(c *Config) { c.LR = 0 },
		"bad steps":   func(c *Config) { c.LocalSteps = 0 },
		"bad rounds":  func(c *Config) { c.MaxRounds = 0 },
		"no test":     func(c *Config) { c.Test = nil },
		"data/device": func(c *Config) { c.UserData = c.UserData[:2] },
	} {
		cfg := good
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Fatalf("%s: Run must fail", name)
		}
	}
}

func TestEvaluateMatchesManualAccuracy(t *testing.T) {
	env := newTestEnv(t, 10, 4)
	rng := rand.New(rand.NewSource(11))
	m := env.spec.Build(rng)
	loss, acc := Evaluate(m, env.test, true)
	logits := m.Forward(env.test.FlatX(), false)
	wantAcc := nn.Accuracy(logits, env.test.Labels)
	if math.Abs(acc-wantAcc) > 1e-12 {
		t.Fatalf("Evaluate accuracy %g, manual %g", acc, wantAcc)
	}
	if loss <= 0 {
		t.Fatalf("loss = %g", loss)
	}
}

func TestRunSLBasic(t *testing.T) {
	env := newTestEnv(t, 12, 6)
	records, err := RunSL(SLConfig{
		Spec:       env.spec,
		Devices:    env.devs,
		UserData:   env.users,
		Test:       env.test,
		Fraction:   0.5,
		LR:         0.3,
		LocalSteps: 1,
		MaxRounds:  30,
		EvalEvery:  5,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 30 {
		t.Fatalf("records = %d", len(records))
	}
	if last := records[len(records)-1]; last.CumEnergy <= 0 || last.CumTime <= 0 {
		t.Fatal("SL costs must be positive")
	}
	for _, r := range records {
		if r.UploadEnergy != 0 {
			t.Fatal("SL must not spend communication energy")
		}
	}
	if slBestAccuracy(records) <= 0 {
		t.Fatal("SL never evaluated")
	}
}

// slBestAccuracy is the highest test accuracy of the evaluated records.
func slBestAccuracy(records []RoundRecord) float64 {
	best := 0.0
	for _, r := range records {
		if r.Evaluated && r.TestAccuracy > best {
			best = r.TestAccuracy
		}
	}
	return best
}

// SL's defining weakness: with few local samples per user it caps below
// collaborative FL on the same budget.
func TestSLWorseThanFederated(t *testing.T) {
	env := newTestEnv(t, 13, 8)
	flCfg := baseConfig(env, allUsersPlanner(env.devs))
	flCfg.MaxRounds = 60
	flRes, err := Run(flCfg)
	if err != nil {
		t.Fatal(err)
	}
	env2 := newTestEnv(t, 13, 8)
	slRecords, err := RunSL(SLConfig{
		Spec: env2.spec, Devices: env2.devs,
		UserData: env2.users, Test: env2.test,
		Fraction: 1.0, LR: 0.3, LocalSteps: 1, MaxRounds: 60, EvalEvery: 10, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sl := slBestAccuracy(slRecords); sl >= flRes.BestAccuracy {
		t.Fatalf("SL (%g) should trail FL (%g)", sl, flRes.BestAccuracy)
	}
}

// TestRunSLMatchesClientReference pins RunSL's per-user models to the
// Client reference: one Client per user, built in fleet order from the same
// seeded stream, trained with TrainOwn and evaluated on the same panel
// must reproduce every record's training loss and test accuracy bitwise.
func TestRunSLMatchesClientReference(t *testing.T) {
	env := newTestEnv(t, 17, 6)
	cfg := SLConfig{
		Spec: env.spec, Devices: env.devs,
		UserData: env.users, Test: env.test,
		Fraction: 0.5, LR: 0.3, LocalSteps: 2, MaxRounds: 8, EvalEvery: 3, EvalUsers: 4, Seed: 5,
	}
	records, err := RunSL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	clients := make([]*Client, len(env.devs))
	for q := range clients {
		clients[q] = NewClient(q, env.users[q], env.spec.Build(rng), true)
	}
	panel := rng.Perm(len(clients))[:cfg.EvalUsers]
	for j, rec := range records {
		lossSum := 0.0
		sel := rng.Perm(len(clients))[:len(rec.Selected)]
		for _, q := range sel {
			lossSum += clients[q].TrainOwn(cfg.LR, cfg.LocalSteps)
		}
		if got, want := rec.TrainLoss, lossSum/float64(len(sel)); got != want {
			t.Fatalf("round %d: train loss %v, reference %v", j, got, want)
		}
		if !rec.Evaluated {
			continue
		}
		accSum := 0.0
		for _, q := range panel {
			_, a := Evaluate(clients[q].Model(), env.test, true)
			accSum += a
		}
		if got, want := rec.TestAccuracy, accSum/float64(len(panel)); got != want {
			t.Fatalf("round %d: accuracy %v, reference %v", j, got, want)
		}
	}
}

func TestRunSLValidation(t *testing.T) {
	env := newTestEnv(t, 14, 4)
	good := SLConfig{
		Spec: env.spec, Devices: env.devs,
		UserData: env.users, Test: env.test,
		Fraction: 0.5, LR: 0.1, LocalSteps: 1, MaxRounds: 5,
	}
	for name, mutate := range map[string]func(*SLConfig){
		"no devices":   func(c *SLConfig) { c.Devices = nil; c.UserData = nil },
		"bad fraction": func(c *SLConfig) { c.Fraction = 0 },
		"bad lr":       func(c *SLConfig) { c.LR = -1 },
	} {
		cfg := good
		mutate(&cfg)
		if _, err := RunSL(cfg); err == nil {
			t.Fatalf("%s: RunSL must fail", name)
		}
	}
}

func TestComposedPlannerBoundsCheck(t *testing.T) {
	env := newTestEnv(t, 15, 3)
	p := &Composed{
		Label:       "bad",
		Devices:     env.devs,
		Select:      func(j int) []int { return []int{99} },
		Frequencies: sim.MaxFrequencies,
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range selection")
		}
	}()
	p.PlanRound(0)
}

// TestClientRequiresData checks that separated learning rejects a user
// without local data with an error, for a nil and an empty dataset.
func TestClientRequiresData(t *testing.T) {
	env := newTestEnv(t, 16, 3)
	for name, data := range map[string]*dataset.Dataset{
		"nil":   nil,
		"empty": {},
	} {
		users := append([]*dataset.Dataset(nil), env.users...)
		users[1] = data
		_, err := RunSL(SLConfig{
			Spec: env.spec, Devices: env.devs,
			UserData: users, Test: env.test,
			Fraction: 1, LR: 0.1, LocalSteps: 1, MaxRounds: 2,
		})
		if err == nil {
			t.Fatalf("%s data: RunSL must fail", name)
		}
	}
}
