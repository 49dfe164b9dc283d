package deploy

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"helcfl/internal/chaos"
	"helcfl/internal/core"
	"helcfl/internal/dataset"
	"helcfl/internal/device"
	"helcfl/internal/fl"
	"helcfl/internal/nn"
	"helcfl/internal/obs"
	"helcfl/internal/selection"
	"helcfl/internal/wireless"
)

// The sim↔deploy conformance fixture: the same campaign expressed twice —
// once through the in-process fl.Engine, once over loopback HTTP through
// deploy.Server/Client — must produce the identical global-model trajectory
// bit-for-bit: same Eq. (20) selections, same Algorithm 3 frequencies, same
// Eq. (18) aggregates. The engine side opts into the wire's float32
// precision (QuantizeBroadcast + QuantizeUploads); the deploy side owes its
// determinism to the server's selection-order aggregation.

// confEnv holds the shared campaign parameters.
type confEnv struct {
	users, rounds int
	seed          int64
	lr            float64
	fraction      float64
	spec          nn.ModelSpec
	userData      []*dataset.Dataset
	test          *dataset.Dataset
	modelBits     float64
	// edges > 1 plans on HELCFL's edge tier (You et al.): E shard
	// schedulers and a two-level Eq. (18).
	edges int
}

func newConfEnv(t *testing.T, users, rounds int) *confEnv {
	t.Helper()
	synth := dataset.GenerateSynth(dataset.SynthConfig{
		Classes: 4, C: 2, H: 4, W: 4, TrainN: 40 * users, TestN: 80, Noise: 0.7, Seed: 5,
	})
	part := dataset.PartitionIID(synth.Train, users, rand.New(rand.NewSource(6)))
	spec := nn.ModelSpec{Kind: "logistic", InC: 2, H: 4, W: 4, Classes: 4}
	return &confEnv{
		users: users, rounds: rounds,
		seed:      9,
		lr:        0.3,
		fraction:  0.5,
		spec:      spec,
		userData:  dataset.UserDatasets(synth.Train, part),
		test:      synth.Test,
		modelBits: nn.ModelBits(spec.Build(rand.New(rand.NewSource(1)))),
	}
}

// clientInfo is the resource report both sides agree on for user q.
func (e *confEnv) clientInfo(q int) RegisterRequest {
	return RegisterRequest{
		User:        q,
		NumSamples:  e.userData[q].N(),
		FMin:        0.3e9,
		FMax:        0.5e9 + float64(q)*0.1e9,
		TxPower:     0.2,
		ChannelGain: 1.0,
	}
}

// engineDevices mirrors what the deploy server reconstructs at registration.
func (e *confEnv) engineDevices() []*device.Device {
	devs := make([]*device.Device, e.users)
	for q := 0; q < e.users; q++ {
		info := e.clientInfo(q)
		devs[q] = &device.Device{
			ID:              q,
			FMin:            info.FMin,
			FMax:            info.FMax,
			CyclesPerSample: device.DefaultCyclesPerSample,
			Kappa:           device.DefaultKappa,
			TxPower:         info.TxPower,
			ChannelGain:     info.ChannelGain,
			NumSamples:      info.NumSamples,
		}
	}
	return devs
}

func (e *confEnv) newPlanner(devs []*device.Device) (fl.Planner, error) {
	params := core.Params{Eta: 0.7, Fraction: e.fraction, StepsPerRound: 1, Clamp: true}
	if e.edges > 1 {
		return selection.NewHierHELCFL(devs, e.edges, wireless.DefaultChannel(), e.modelBits, params)
	}
	return selection.NewHELCFL(devs, wireless.DefaultChannel(), e.modelBits, params)
}

// recordingPlanner captures every PlanRound decision.
type recordingPlanner struct {
	inner fl.Planner
	mu    sync.Mutex
	sel   [][]int
	freqs [][]float64
}

func (r *recordingPlanner) Name() string { return r.inner.Name() }

// NumEdges and EdgeOf forward the inner planner's edge tier, so both the
// engine and the server aggregate over it.
func (r *recordingPlanner) NumEdges() int    { return fl.TopologyOf(r.inner).NumEdges() }
func (r *recordingPlanner) EdgeOf(q int) int { return fl.TopologyOf(r.inner).EdgeOf(q) }

func (r *recordingPlanner) PlanRound(j int) ([]int, []float64) {
	sel, freqs := r.inner.PlanRound(j)
	r.mu.Lock()
	r.sel = append(r.sel, append([]int(nil), sel...))
	r.freqs = append(r.freqs, append([]float64(nil), freqs...))
	r.mu.Unlock()
	return sel, freqs
}

func (r *recordingPlanner) rounds() ([][]int, [][]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sel, r.freqs
}

// runEngine executes the campaign in-process for `rounds` rounds with
// wire-precision quantization, returning the result and the recorded
// decisions.
func (e *confEnv) runEngine(t *testing.T, rounds int) (*fl.Result, *recordingPlanner) {
	t.Helper()
	devs := e.engineDevices()
	planner, err := e.newPlanner(devs)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingPlanner{inner: planner}
	res, err := fl.Run(fl.Config{
		Spec:              e.spec,
		Devices:           devs,
		Channel:           wireless.DefaultChannel(),
		UserData:          e.userData,
		Test:              e.test,
		Planner:           rec,
		LR:                e.lr,
		LocalSteps:        1,
		MaxRounds:         rounds,
		EvalEvery:         rounds, // evaluate round 0 and the final round only
		QuantizeUploads:   true,
		QuantizeBroadcast: true,
		Seed:              e.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

// deployOpts tune the loopback campaign for chaos scenarios.
type deployOpts struct {
	script        *chaos.Script // shared fault schedule; nil = clean transport
	maxRetries    int
	baseBackoff   time.Duration
	roundDeadline time.Duration
	quorum        float64
	sink          obs.EventSink
}

// deployResult is everything the loopback campaign produced.
type deployResult struct {
	srv        *Server
	summaries  []RoundSummary
	clientErrs []error
	planner    *recordingPlanner
}

// runDeploy executes the campaign over loopback HTTP and waits for every
// client to exit. Client errors are returned, not fatal — chaos scenarios
// legitimately kill clients.
func (e *confEnv) runDeploy(t *testing.T, opts deployOpts) *deployResult {
	t.Helper()
	var (
		mu        sync.Mutex
		summaries []RoundSummary
	)
	rec := &recordingPlanner{}
	srv, err := NewServer(ServerConfig{
		Spec:          e.spec,
		Seed:          e.seed,
		ExpectedUsers: e.users,
		Rounds:        e.rounds,
		RoundDeadline: opts.roundDeadline,
		Quorum:        opts.quorum,
		Sink:          opts.sink,
		NewPlanner: func(devs []*device.Device) (fl.Planner, error) {
			inner, err := e.newPlanner(devs)
			if err != nil {
				return nil, err
			}
			rec.inner = inner
			return rec, nil
		},
		RoundHook: func(s RoundSummary) {
			mu.Lock()
			summaries = append(summaries, s)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	errs := make([]error, e.users)
	var wg sync.WaitGroup
	for q := 0; q < e.users; q++ {
		httpClient := http.DefaultClient
		if opts.script != nil {
			httpClient = chaos.NewTransport(opts.script, q).Client()
		}
		c, err := NewClient(ClientConfig{
			BaseURL:      ts.URL,
			Info:         e.clientInfo(q),
			Data:         e.userData[q],
			Spec:         e.spec,
			LR:           e.lr,
			LocalSteps:   1,
			PollInterval: time.Millisecond,
			MaxRetries:   opts.maxRetries,
			BaseBackoff:  opts.baseBackoff,
			HTTPClient:   httpClient,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(q int, c *Client) {
			defer wg.Done()
			errs[q] = c.Run()
		}(q, c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("deployment did not finish in 60s")
	}
	mu.Lock()
	defer mu.Unlock()
	return &deployResult{srv: srv, summaries: summaries, clientErrs: errs, planner: rec}
}

// bitsEqual reports exact float64 equality (including NaN payloads).
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConformanceSimMatchesDeploy is the headline conformance test: a
// multi-round campaign over loopback HTTP with a fault-free transport
// reproduces the in-process engine's global-model trajectory exactly.
func TestConformanceSimMatchesDeploy(t *testing.T) {
	checkSimMatchesDeploy(t, newConfEnv(t, 5, 4))
}

// TestConformanceHierSimMatchesDeploy runs the same check on a three-edge
// tier: the server must aggregate through the planner's EdgeTopology as
// the engine does, not with flat FedAvg.
func TestConformanceHierSimMatchesDeploy(t *testing.T) {
	env := newConfEnv(t, 6, 4)
	env.edges = 3
	checkSimMatchesDeploy(t, env)
}

func checkSimMatchesDeploy(t *testing.T, env *confEnv) {
	t.Helper()
	dep := env.runDeploy(t, deployOpts{})
	for q, err := range dep.clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", q, err)
		}
	}
	if len(dep.summaries) != env.rounds {
		t.Fatalf("deploy closed %d rounds, want %d", len(dep.summaries), env.rounds)
	}

	engRes, engRec := env.runEngine(t, env.rounds)
	engSel, engFreqs := engRec.rounds()
	depSel, depFreqs := dep.planner.rounds()

	// Same Eq. (20) selections and Algorithm 3 frequencies every round.
	if len(engSel) != env.rounds || len(depSel) != env.rounds {
		t.Fatalf("planner rounds: engine %d, deploy %d, want %d", len(engSel), len(depSel), env.rounds)
	}
	for j := 0; j < env.rounds; j++ {
		if !intsEqual(engSel[j], depSel[j]) {
			t.Fatalf("round %d selections diverge: engine %v, deploy %v", j, engSel[j], depSel[j])
		}
		if !bitsEqual(engFreqs[j], depFreqs[j]) {
			t.Fatalf("round %d frequencies diverge: engine %v, deploy %v", j, engFreqs[j], depFreqs[j])
		}
		if s := dep.summaries[j]; s.Partial || !intsEqual(s.Selected, s.Uploaded) {
			t.Fatalf("round %d closed partially on a fault-free transport: %+v", j, s)
		}
	}

	// Same Eq. (18) aggregate after every round: the deploy trajectory is
	// compared against engine prefix runs (the engine is deterministic, so
	// the k-round run is the k-prefix of the full trajectory).
	for j := 0; j < env.rounds; j++ {
		prefixRes, _ := env.runEngine(t, j+1)
		if !bitsEqual(prefixRes.Model.GetFlatParams(), dep.summaries[j].Global) {
			t.Fatalf("global model diverges after round %d", j)
		}
	}

	// And the final served model matches the full engine run bit-for-bit.
	if !bitsEqual(engRes.Model.GetFlatParams(), dep.srv.Global().GetFlatParams()) {
		t.Fatal("final global model diverges between engine and deploy")
	}
}

// TestConformanceDeployIsDeterministic pins that two identical loopback
// campaigns produce the identical trajectory — the property the selection-
// order aggregation fix exists for, since goroutine/arrival order varies
// freely between runs.
func TestConformanceDeployIsDeterministic(t *testing.T) {
	env := newConfEnv(t, 5, 3)
	a := env.runDeploy(t, deployOpts{})
	b := env.runDeploy(t, deployOpts{})
	if len(a.summaries) != len(b.summaries) {
		t.Fatalf("round counts differ: %d vs %d", len(a.summaries), len(b.summaries))
	}
	for j := range a.summaries {
		if !bitsEqual(a.summaries[j].Global, b.summaries[j].Global) {
			t.Fatalf("round %d global diverges between identical runs", j)
		}
	}
}
