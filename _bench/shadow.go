package main

import (
	"fmt"
	"math/rand"
	"sync"

	"helcfl/internal/device"
	"helcfl/internal/experiments"
	"helcfl/internal/fl"
	"helcfl/internal/nn"
	"helcfl/internal/obs/span"
	"helcfl/internal/selection"
	"helcfl/internal/sim"
	"helcfl/internal/tensor"
)

// Span names of the shadow round. The part before the first dot after
// "shadow." is the layer the span's self time is billed to (shadowLayers).
const (
	spRound       = "shadow.round"
	spPlan        = "shadow.core.plan"
	spSim         = "shadow.sim.simulate_round"
	spBroadcast   = "shadow.nn.flat_params"
	spTrain       = "shadow.fl.train_phase"
	spUpdate      = "shadow.fl.local_update"
	spLoadParams  = "shadow.nn.set_flat_params"
	spForward     = "shadow.nn.forward"
	spBackward    = "shadow.nn.backward"
	spSGD         = "shadow.nn.sgd_step"
	spStoreParams = "shadow.nn.flat_params_into"
	spFedAvg      = "shadow.fl.fedavg"
	spSetGlobal   = "shadow.nn.set_global"
	spEval        = "shadow.fl.evaluate"
)

// shadowLayers bills each shadow span's self time to a layer. The round
// span's own self time is what no layer call covers: the bench's glue.
var shadowLayers = map[string]string{
	spRound: "harness", spPlan: "core", spSim: "sim", spBroadcast: "nn",
	spTrain: "fl", spUpdate: "fl", spLoadParams: "nn", spForward: "nn",
	spBackward: "nn", spSGD: "nn", spStoreParams: "nn", spFedAvg: "fl",
	spSetGlobal: "nn", spEval: "fl",
}

// shadowClient is the training-side state fl.Client keeps per user.
type shadowClient struct {
	model *nn.Sequential
	x     *tensor.Tensor
	loss  *nn.SoftmaxCrossEntropy
	flat  []float64
}

// shadow replays fl.Engine's campaign from the layers' exported functions:
// Planner.PlanRound → sim.Scratch.SimulateRoundGains → FlatParamsInto →
// per-user local update (SetFlatParams, ZeroGrads, Forward, loss, Backward,
// AXPY, FlatParamsInto) → fl.FedAvgInto → SetFlatParams → fl.Evaluate. It
// does the engine's arithmetic in the engine's order, so the final
// parameters must equal the engine's bit for bit — which is what licenses
// reading its spans as a decomposition of Engine.Step.
type shadow struct {
	env     *experiments.Env
	planner *selection.HELCFLPlanner
	rec     *span.Recorder
	spans   *span.Collector

	global, pristine *nn.Sequential
	flatten          bool
	clients          []*shadowClient
	workers, cohort  int
	heapPushes       int

	scratch    sim.Scratch
	selDevs    []*device.Device
	globalFlat []float64
	avg        []float64
	uploads    [][]float64
	weights    []int
}

func newShadow(env *experiments.Env, seed int64) (*shadow, error) {
	planner, err := newHELCFL(env)
	if err != nil {
		return nil, err
	}
	coll := &span.Collector{}
	global := env.Spec.Build(rand.New(rand.NewSource(env.Seed + 100)))
	n := global.NumParams()
	return &shadow{
		env:     env,
		planner: planner,
		// The collector keeps every span; the recorder's own ring is unused.
		rec:        span.NewRecorder(uint64(seed), span.Options{Capacity: 1, Exporter: coll}),
		spans:      coll,
		global:     global,
		pristine:   global.Clone(),
		flatten:    env.Spec.FlattensInput(),
		clients:    make([]*shadowClient, len(env.Devices)),
		workers:    1,
		globalFlat: make([]float64, n),
		avg:        make([]float64, n),
	}, nil
}

// client returns user q's training state, cloning the initial model on first
// use: the engine clones it for every user up front, and a user's scratch
// model is overwritten by the broadcast before each update.
func (s *shadow) client(q int) *shadowClient {
	if c := s.clients[q]; c != nil {
		return c
	}
	d := s.env.UserData[q]
	c := &shadowClient{model: s.pristine.Clone(), x: d.X, loss: nn.NewSoftmaxCrossEntropy()}
	if s.flatten {
		c.x = d.FlatX()
	}
	c.flat = make([]float64, len(s.globalFlat))
	s.clients[q] = c
	return c
}

// localUpdate is fl.Client.LocalUpdate (μ = 0) with a span around each call
// into nn.
func (s *shadow) localUpdate(parent span.Ref, q int) []float64 {
	p := s.env.Preset
	c := s.clients[q]
	labels := s.env.UserData[q].Labels
	up := s.rec.Start(parent, spUpdate)
	defer up.End()

	sp := s.rec.Start(up.Ref(), spLoadParams)
	c.model.SetFlatParams(s.globalFlat)
	sp.End()
	for step := 0; step < p.LocalSteps; step++ {
		sp = s.rec.Start(up.Ref(), spForward)
		c.model.ZeroGrads()
		logits := c.model.Forward(c.x, true)
		c.loss.Forward(logits, labels)
		sp.End()
		sp = s.rec.Start(up.Ref(), spBackward)
		c.model.Backward(c.loss.Backward())
		sp.End()
		sp = s.rec.Start(up.Ref(), spSGD)
		params, grads := c.model.Params(), c.model.Grads()
		for i, prm := range params {
			prm.AXPY(-p.LR, grads[i])
		}
		sp.End()
	}
	sp = s.rec.Start(up.Ref(), spStoreParams)
	c.model.FlatParamsInto(c.flat)
	sp.End()
	return c.flat
}

// train runs the cohort's local updates on as many workers as the engine's
// pool would use, results landing at fixed slots.
func (s *shadow) train(parent span.Ref, selected []int) {
	for _, q := range selected {
		s.client(q) // clone outside the workers; the map of clients is not locked
	}
	w := tensor.Workers()
	if w > len(selected) {
		w = len(selected)
	}
	if w > s.workers {
		s.workers = w
	}
	if w <= 1 {
		for si, q := range selected {
			s.uploads[si] = s.localUpdate(parent, q)
		}
		return
	}
	tasks := make(chan int, len(selected))
	for si := range selected {
		tasks <- si
	}
	close(tasks)
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for si := range tasks {
				s.uploads[si] = s.localUpdate(parent, selected[si])
			}
		}()
	}
	wg.Wait()
}

func (s *shadow) round(j int) error {
	env, p := s.env, s.env.Preset
	rs := s.rec.Start(s.rec.Root(), spRound)
	defer rs.End()

	sp := s.rec.Start(rs.Ref(), spPlan)
	selected, freqs := s.planner.PlanRound(j)
	sp.End()
	if len(selected) == 0 {
		return fmt.Errorf("shadow: planner selected no users in round %d", j)
	}
	s.heapPushes += s.planner.Scheduler().LastHeapPushes()
	s.cohort = len(selected)

	sp = s.rec.Start(rs.Ref(), spSim)
	s.selDevs = s.selDevs[:0]
	for _, q := range selected {
		s.selDevs = append(s.selDevs, env.Devices[q])
	}
	s.scratch.SimulateRoundGains(s.selDevs, freqs, env.Channel, env.ModelBits, p.LocalSteps, nil)
	sp.End()

	sp = s.rec.Start(rs.Ref(), spBroadcast)
	s.global.FlatParamsInto(s.globalFlat)
	sp.End()

	sp = s.rec.Start(rs.Ref(), spTrain)
	if cap(s.uploads) < len(selected) {
		s.uploads = make([][]float64, len(selected))
		s.weights = make([]int, len(selected))
	}
	s.uploads, s.weights = s.uploads[:len(selected)], s.weights[:len(selected)]
	s.train(sp.Ref(), selected)
	sp.End()

	sp = s.rec.Start(rs.Ref(), spFedAvg)
	for si, q := range selected {
		s.weights[si] = env.UserData[q].N()
	}
	fl.FedAvgInto(s.avg, s.uploads, s.weights)
	sp.End()

	sp = s.rec.Start(rs.Ref(), spSetGlobal)
	s.global.SetFlatParams(s.avg)
	sp.End()

	evalEvery := p.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 1
	}
	if j%evalEvery == 0 || j == p.MaxRounds-1 {
		sp = s.rec.Start(rs.Ref(), spEval)
		fl.Evaluate(s.global, env.Synth.Test, s.flatten)
		sp.End()
	}
	return nil
}

func (s *shadow) run() error {
	for j := 0; j < s.env.Preset.MaxRounds; j++ {
		if err := s.round(j); err != nil {
			return err
		}
	}
	return nil
}

func (s *shadow) digest() uint64 { return digestModel(s.global) }

// layerShares turns span self times into the layer.<name>.self_pct metrics:
// each layer's share of all self time in the trace.
func layerShares(m metrics, recs []span.Rec, layerOf map[string]string) {
	self := selfByLayer(recs, layerOf)
	var total float64
	for _, ns := range self {
		total += ns
	}
	if total == 0 {
		return
	}
	for layer, ns := range self {
		m["layer."+layer+".self_pct"] = 100 * ns / total
	}
}
