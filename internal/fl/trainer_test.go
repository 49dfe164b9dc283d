package fl

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"helcfl/internal/dataset"
	"helcfl/internal/device"
	"helcfl/internal/nn"
	"helcfl/internal/sim"
	"helcfl/internal/tensor"
	"helcfl/internal/wireless"
)

// newSizedEnv builds a fleet whose users hold the given numbers of samples,
// carved as contiguous runs of a label-sorted synthetic set — so the fleet
// is heterogeneous in |D_q| and Non-IID in labels, the combination under
// which one model serving many users would show stale scratch if any kernel
// read beyond what it had just written.
func newSizedEnv(t *testing.T, seed int64, sizes []int, spec nn.ModelSpec) *testEnv {
	t.Helper()
	total := 0
	for _, n := range sizes {
		total += n
	}
	synth := dataset.GenerateSynth(dataset.SynthConfig{
		Classes: spec.Classes, C: spec.InC, H: spec.H, W: spec.W,
		TrainN: total, TestN: 40, Noise: 0.6, Seed: seed,
	})
	byLabel := make([]int, 0, total)
	for c := 0; c < spec.Classes; c++ {
		for i, l := range synth.Train.Labels {
			if l == c {
				byLabel = append(byLabel, i)
			}
		}
	}
	cfg := device.DefaultCatalogConfig()
	cfg.Q = len(sizes)
	devs := device.NewCatalog(cfg, rand.New(rand.NewSource(seed)))
	users := make([]*dataset.Dataset, len(sizes))
	off := 0
	for q, n := range sizes {
		users[q] = synth.Train.Subset(byLabel[off : off+n])
		devs[q].NumSamples = n
		off += n
	}
	return &testEnv{devs: devs, ch: wireless.DefaultChannel(), users: users, test: synth.Test, spec: spec}
}

// sameBits compares raw float64 bits, so negative zeros and NaNs count.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestTrainerReuseMatchesFreshClients is the differential check behind the
// engine's worker-owned models: one trainer driven over users with
// different |D_q| — shrinking, growing, shrinking again, then revisiting —
// must produce, for every user, the upload and loss a fresh Client with its
// own model clone produces, bit for bit. Multiple steps exercise every
// buffer the loop touches.
func TestTrainerReuseMatchesFreshClients(t *testing.T) {
	for _, spec := range []nn.ModelSpec{
		{Kind: "mlp", InC: 2, H: 8, W: 8, Classes: 4, Hidden: []int{16, 8}},
		{Kind: "squeezenet-mini", InC: 2, H: 8, W: 8, Classes: 4},
	} {
		t.Run(spec.Kind, func(t *testing.T) {
			env := newSizedEnv(t, 21, []int{24, 5, 17, 3, 24, 9}, spec)
			global := spec.Build(rand.New(rand.NewSource(5)))
			globalFlat := global.GetFlatParams()
			flatten := spec.FlattensInput()
			const lr, steps = 0.1, 2

			tr := trainer{model: global.Clone(), loss: nn.NewSoftmaxCrossEntropy()}
			upload := make([]float64, len(globalFlat))
			for _, q := range []int{0, 1, 2, 3, 4, 5, 3, 0} {
				d := env.users[q]
				loss := LocalUpdate(tr.model, tr.loss, modelInput(d, flatten), d.Labels, globalFlat, lr, steps, upload)
				wantUpload, wantLoss := NewClient(q, d, global.Clone(), flatten).LocalUpdate(globalFlat, lr, steps)
				if !sameBits(loss, wantLoss) {
					t.Fatalf("user %d (|D_q|=%d): reused trainer loss %v, fresh client %v", q, d.N(), loss, wantLoss)
				}
				if !slices.EqualFunc(upload, wantUpload, sameBits) {
					t.Fatalf("user %d (|D_q|=%d): reused trainer upload diverges from a fresh client's", q, d.N())
				}
			}
		})
	}
}

// fullBackwardUpdate is LocalUpdate's Eq. (3) loop written out with
// Sequential.Backward, which also computes the first layer's input
// gradient: the reference LocalUpdate's parameter-only backward must match.
func fullBackwardUpdate(m *nn.Sequential, loss *nn.SoftmaxCrossEntropy, x *tensor.Tensor, labels []int, global []float64, lr float64, steps int) ([]float64, float64) {
	m.SetFlatParams(global)
	lossVal := 0.0
	for s := 0; s < steps; s++ {
		m.ZeroGrads()
		lossVal = loss.Forward(m.Forward(x, true), labels)
		m.Backward(loss.Backward())
		for i, p := range m.Params() {
			p.AXPY(-lr, m.Grads()[i])
		}
	}
	return m.GetFlatParams(), lossVal
}

// TestLocalUpdateMatchesFullBackward pins the parameter-only backward on
// the product path: for every model kind, over one and several steps, LocalUpdate's parameters and loss are
// bit-identical to the same loop run with the full Backward.
func TestLocalUpdateMatchesFullBackward(t *testing.T) {
	for _, spec := range []nn.ModelSpec{
		{Kind: "mlp", InC: 3, H: 8, W: 8, Classes: 10, Hidden: []int{32}},
		{Kind: "logistic", InC: 3, H: 8, W: 8, Classes: 10},
		{Kind: "squeezenet-mini", InC: 3, H: 8, W: 8, Classes: 10},
	} {
		env := newSizedEnv(t, 31, []int{24}, spec)
		d := env.users[0]
		x := modelInput(d, spec.FlattensInput())
		global := spec.Build(rand.New(rand.NewSource(9))).GetFlatParams()
		for _, steps := range []int{1, 3} {
			m := spec.Build(rand.New(rand.NewSource(1)))
			ref := m.Clone()
			got := make([]float64, len(global))
			gotLoss := LocalUpdate(m, nn.NewSoftmaxCrossEntropy(), x, d.Labels, global, 0.1, steps, got)
			want, wantLoss := fullBackwardUpdate(ref, nn.NewSoftmaxCrossEntropy(), x, d.Labels, global, 0.1, steps)
			if !sameBits(gotLoss, wantLoss) {
				t.Errorf("%s steps=%d: loss %v, full backward %v", spec.Kind, steps, gotLoss, wantLoss)
			}
			if !slices.EqualFunc(got, want, sameBits) {
				t.Errorf("%s steps=%d: parameters diverge from the full-backward loop", spec.Kind, steps)
			}
		}
	}
}

// roundRobinPlanner selects the next `cohort` users in index order each
// round at FMax, wrapping around the fleet, so after ⌈Q/cohort⌉ rounds
// every user has trained once. Stateless: what a test measures around it
// belongs to the engine.
func roundRobinPlanner(devs []*device.Device, cohort int) Planner {
	return &Composed{
		Label:   "round-robin",
		Devices: devs,
		Select: func(j int) []int {
			sel := make([]int, cohort)
			for i := range sel {
				sel[i] = (j*cohort + i) % len(devs)
			}
			return sel
		},
		Frequencies: sim.MaxFrequencies,
	}
}

// TestEngineMemoryIsCohortScoped keeps per-user model state from coming
// back. Two logistic engines, Q=500 and Q=4000, both train cohorts of 20
// for the same number of rounds — enough for every user of the larger fleet
// to have trained — and the live heap each engine holds afterwards (devices
// and datasets are built before the baseline reading, so they cancel) may
// differ by at most 256 B per extra user: the cached model-input header,
// the battery ledger entry and the task-channel slot. One model clone per
// user, which the engine used to keep, is ≈10 KB even on this small fixture
// (parameters plus gradients), before any layer scratch.
func TestEngineMemoryIsCohortScoped(t *testing.T) {
	const cohort, rounds, budgetPerUser = 20, 200, 256
	spec := nn.ModelSpec{Kind: "logistic", InC: 1, H: 8, W: 8, Classes: 10}

	engineHeap := func(q int) int64 {
		sizes := make([]int, q)
		for i := range sizes {
			sizes[i] = 1 + i%3
		}
		env := newSizedEnv(t, 33, sizes, spec)
		cfg := baseConfig(env, roundRobinPlanner(env.devs, cohort))
		cfg.MaxRounds = rounds
		cfg.EvalEvery = 1 << 30

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i := 0; i < rounds; i++ {
			if ok, err := e.Step(); !ok || err != nil {
				t.Fatalf("Q=%d step %d: ok=%v err=%v", q, i, ok, err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(e)
		runtime.KeepAlive(env)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}

	small, large := engineHeap(500), engineHeap(4000)
	perUser := float64(large-small) / 3500
	t.Logf("engine live heap: Q=500 %d B, Q=4000 %d B, %.1f B per extra user", small, large, perUser)
	if perUser > budgetPerUser {
		t.Errorf("engine live heap grows by %.0f B per extra user, budget %d B: per-user training state is back", perUser, budgetPerUser)
	}
}
