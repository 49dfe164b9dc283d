package fl

import (
	"fmt"
	"math/rand"
	"sync"

	"time"

	"helcfl/internal/compress"
	"helcfl/internal/dataset"
	"helcfl/internal/device"
	"helcfl/internal/nn"
	"helcfl/internal/obs"
	"helcfl/internal/obs/span"
	"helcfl/internal/sim"
	"helcfl/internal/tensor"
	"helcfl/internal/wireless"
)

// Config describes one federated training run (Algorithm 1 end-to-end).
type Config struct {
	// Spec is the shared model architecture.
	Spec nn.ModelSpec
	// Devices is the fleet; Devices[q].NumSamples is set by Run from
	// UserData.
	Devices []*device.Device
	// Channel is the shared TDMA uplink.
	Channel wireless.Channel
	// UserData aligns with Devices: D_q for each user.
	UserData []*dataset.Dataset
	// Test is the global held-out set the FLCC evaluates on.
	Test *dataset.Dataset
	// Planner makes the per-round selection + frequency decision.
	Planner Planner
	// LR is the gradient-descent learning rate τ.
	LR float64
	// LocalSteps is the number of full-batch GD passes per round (paper: 1).
	LocalSteps int
	// MaxRounds is J, the iteration budget.
	MaxRounds int
	// DeadlineSec, when positive, stops training once cumulative simulated
	// wall-clock exceeds it (constraint (14)).
	DeadlineSec float64
	// EvalEvery evaluates global test accuracy every k rounds (and always
	// on the final round). 0 means every round.
	EvalEvery int
	// QuantizeUploads round-trips each upload through the float32 wire
	// format, modelling the real payload of Eq. (7).
	QuantizeUploads bool
	// QuantizeBroadcast round-trips the per-round broadcast parameters
	// through the float32 wire format before clients train on them — what a
	// deployed device actually receives (nn.ParamBytes). Together with
	// QuantizeUploads this makes the engine bit-for-bit equivalent to the
	// loopback-HTTP deployment; the deploy conformance test pins that.
	QuantizeBroadcast bool
	// Compressor, when non-nil, lossy-compresses every upload (top-k
	// sparsification or scalar quantization; see internal/compress) and
	// shrinks C_model accordingly — the communication-cost alternative the
	// paper compares its scheduling approach against.
	Compressor compress.Compressor
	// Gains, when non-nil, supplies per-round channel gains (block
	// fading). The planner still decides on the static initialization-phase
	// gains, exactly the staleness a real FLCC faces.
	Gains wireless.GainProcess
	// DropoutProb is the per-user, per-round probability that a selected
	// user's upload fails (battery exhaustion or radio loss — the paper's
	// Section I motivation). The failed user's compute and airtime costs
	// are still paid; its model is excluded from FedAvg.
	DropoutProb float64
	// BatteryCapacityJ, when positive, gives every device a finite energy
	// budget. A device whose cumulative training energy exceeds it shuts
	// down: the FLCC drops it from future rounds (it no longer responds).
	// This instantiates the paper's Section I motivation — "energy of user
	// devices is quickly exhausted or even device shutdown occurs".
	BatteryCapacityJ float64
	// Sink, when non-nil, receives structured engine events as the run
	// executes: round boundaries, selection decisions (with Algorithm 2
	// utility/decay state when the planner exposes it), per-user
	// local-update and upload spans, frequency-determination outcomes,
	// dropout and battery faults, and aggregations. See internal/obs.
	// A nil Sink adds zero allocations to the round hot path.
	Sink obs.EventSink
	// Trace, when non-nil, records measured phase spans for every round —
	// plan (selection + DVFS solve), local train, upload post-processing,
	// aggregate, eval — alongside the modeled Eq. (7)–(8) costs as span
	// attributes, so wall time and analytical time are comparable per
	// phase. Like a nil Sink, a nil Trace adds zero allocations to the
	// round hot path.
	Trace *span.Recorder
	// TraceParent, when non-zero, parents the run span: the grid runner
	// nests campaign cells under their cell span, and a deploy server
	// stitches rounds under the remote caller's span.
	TraceParent span.Ref
	// Seed drives model initialization.
	Seed int64
}

// validate reports whether the configuration is runnable; NewEngine calls it
// before touching any state, so a config that validates cleanly fails only
// for runtime reasons (planner errors, dead fleets).
func (c *Config) validate() error {
	switch {
	case len(c.Devices) == 0:
		return fmt.Errorf("fl: no devices")
	case len(c.UserData) != len(c.Devices):
		return fmt.Errorf("fl: %d user datasets for %d devices", len(c.UserData), len(c.Devices))
	case c.Test == nil || c.Test.N() == 0:
		return fmt.Errorf("fl: no test data")
	case c.Planner == nil:
		return fmt.Errorf("fl: no planner")
	case c.LR <= 0:
		return fmt.Errorf("fl: non-positive learning rate %g", c.LR)
	case c.LocalSteps <= 0:
		return fmt.Errorf("fl: non-positive local steps %d", c.LocalSteps)
	case c.MaxRounds <= 0:
		return fmt.Errorf("fl: non-positive round budget %d", c.MaxRounds)
	case c.DropoutProb < 0 || c.DropoutProb >= 1:
		return fmt.Errorf("fl: dropout probability %g outside [0,1)", c.DropoutProb)
	}
	if err := c.Channel.Validate(); err != nil {
		return err
	}
	for q, d := range c.UserData {
		if d == nil || d.N() == 0 {
			return fmt.Errorf("fl: user %d has no data", q)
		}
	}
	return nil
}

// RoundRecord captures one executed training round.
type RoundRecord struct {
	// Round is the 0-based iteration index.
	Round int
	// Selected lists participating user indices.
	Selected []int
	// Freqs aligns with Selected.
	Freqs []float64
	// Delay is the true TDMA round makespan.
	Delay float64
	// Energy totals Eq. (11) for the round; ComputeEnergy and UploadEnergy
	// are its parts; Slack is the reclaimable stop-and-wait time.
	Energy, ComputeEnergy, UploadEnergy, Slack float64
	// CumTime and CumEnergy accumulate Delay and Energy up to and including
	// this round.
	CumTime, CumEnergy float64
	// TrainLoss is the mean final local loss across selected users.
	TrainLoss float64
	// Failed counts selected users whose upload was lost this round
	// (straggler/battery fault injection).
	Failed int
	// AliveDevices counts devices with remaining battery after this round
	// (equals the fleet size when batteries are disabled).
	AliveDevices int
	// Evaluated reports whether TestLoss/TestAccuracy were measured this
	// round.
	Evaluated bool
	// TestLoss and TestAccuracy are global-model metrics (valid when
	// Evaluated).
	TestLoss, TestAccuracy float64
}

// Result is a completed training run.
type Result struct {
	// Scheme is the planner name.
	Scheme string
	// Records holds one entry per executed round.
	Records []RoundRecord
	// Model is the final global model.
	Model *nn.Sequential
	// ModelBits is C_model used for every upload.
	ModelBits float64
	// FinalAccuracy and BestAccuracy summarize test accuracy.
	FinalAccuracy, BestAccuracy float64
	// TotalTime and TotalEnergy are the summed round delays and energies.
	TotalTime, TotalEnergy float64
	// StoppedByDeadline reports the Eq. 14 deadline exit fired.
	StoppedByDeadline bool
	// HaltedByDeadFleet reports that training stopped because every user
	// the planner selected had exhausted its battery.
	HaltedByDeadFleet bool
}

// Engine executes Algorithm 1 one round at a time, exposing the campaign
// state between rounds so a long-horizon run can be checkpointed
// (Snapshot) and resumed elsewhere (RestoreEngine) without perturbing the
// training trajectory. fl.Run wraps it for callers that want the whole
// campaign in one call; both paths execute byte-identical mathematics.
type Engine struct {
	cfg     Config
	rng     *rand.Rand
	rngUsed uint64 // post-initialization Float64 draws (dropout sampling)

	global    *nn.Sequential
	modelBits float64
	flatten   bool
	evalEvery int

	// Training state scales with workers + cohort, not with the fleet: the
	// broadcast overwrites a user's model before every Eq. (3) update, so
	// the engine owns one trainer per local-update worker, one upload buffer
	// per selection slot (flats, below), and per user only the cached
	// model-input header of its dataset.
	trainers []trainer
	inputs   []*tensor.Tensor

	res       *Result
	cumTime   float64
	cumEnergy float64
	spentJ    []float64

	round    int  // next round to execute
	stopped  bool // an exit condition fired
	finished bool // RunEnd emitted

	runSp span.Span // open "fl.run" span; zero when Config.Trace is nil

	// Round scratch, reused across Step calls: once every buffer has grown
	// to the fleet's high-water mark, a steady-state round (nil Sink/Trace,
	// no eval, default knobs) allocates nothing. The alloc-gate test in
	// engine_alloc_test.go pins this at zero.
	selDevs    []*device.Device
	gainsBuf   []float64
	simScratch sim.Scratch
	globalFlat []float64 // full-precision global parameters each round
	bcastBuf   []float64 // float32-quantized broadcast (QuantizeBroadcast)
	broadcast  []float64 // what clients actually receive this round
	flats      [][]float64
	losses     []float64
	wall       []float64 // aliases wallBuf while a Sink is installed, else nil
	wallBuf    []float64
	uploadsBuf [][]float64
	weightsBuf []int
	deltaBuf   []float64
	avgBuf     []float64

	// Edge-aggregation tier: the planner's EdgeTopology, or the single
	// FLCC edge. edgeBuf maps each selected user to its edge aggregator,
	// upEdgesBuf the surviving uploads likewise, hierScratch the per-edge
	// FedAvg accumulators.
	topo        EdgeTopology
	edgeBuf     []int
	upEdgesBuf  []int
	hierScratch HierScratch

	// Persistent worker pool for local updates and evaluation, spawned
	// lazily on the first round that trains more than one user or
	// evaluates more than one row range concurrently, and stopped by
	// Close. With one effective worker the engine trains and evaluates
	// inline on the calling goroutine — no goroutines, no channel.
	taskCh chan poolTask
	taskWG sync.WaitGroup // the round's outstanding tasks
	poolWG sync.WaitGroup // the pool's live workers

	// Evaluation state: the test set cut for the current worker count,
	// and the global parameters the round's evaluation loads.
	eval       *evaluator
	evalParams []float64
}

// poolTask names one unit of pool work: user q's local update into result
// slot si (selected[si] == q), or, with eval set, the forward pass of the
// evaluator's row range si.
type poolTask struct {
	si, q int
	eval  bool
}

// trainer is one pool worker's model state: a model structurally identical
// to the global one, whose layer scratch grows to the largest |D_q| or
// evaluation chunk the worker has served, and the loss that goes with it.
// The inline path runs on trainer 0 (built with the engine), pool worker i
// on trainer i (built with the pool).
type trainer struct {
	model *nn.Sequential
	loss  *nn.SoftmaxCrossEntropy
}

// NewEngine validates the configuration, runs the initialization phase of
// Algorithm 1 (lines 1–2), and returns an engine positioned before round 0.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e, err := newEngineState(cfg)
	if err != nil {
		return nil, err
	}
	e.emitRunStart()
	e.startRunSpan()
	return e, nil
}

// newEngineState builds everything deterministic about an engine — model,
// per-user inputs, RNG at its post-initialization position — without
// emitting events. Shared by NewEngine and RestoreEngine.
func newEngineState(cfg Config) (*Engine, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	global := cfg.Spec.Build(rng)
	modelBits := nn.ModelBits(global)
	if cfg.Compressor != nil {
		modelBits = cfg.Compressor.BitsFor(global.NumParams())
	}
	flatten := cfg.Spec.FlattensInput()

	// Initialization phase (Algorithm 1, lines 1–2): the FLCC learns each
	// device's resources; here that also pins |D_q| for Eqs. (4)–(5).
	inputs := make([]*tensor.Tensor, len(cfg.Devices))
	for q, d := range cfg.Devices {
		// Skip-if-equal: devices from a cached experiment environment are
		// shared across concurrently running engines, and the env builder
		// already pinned |D_q|. Only writing on change keeps the shared
		// fleet read-only during parallel campaigns (race-free by absence
		// of writes, not by luck of identical values).
		if n := cfg.UserData[q].N(); d.NumSamples != n {
			d.NumSamples = n
		}
		if err := d.Validate(); err != nil {
			return nil, err
		}
		inputs[q] = modelInput(cfg.UserData[q], flatten)
	}

	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 1
	}
	return &Engine{
		cfg:       cfg,
		rng:       rng,
		global:    global,
		modelBits: modelBits,
		flatten:   flatten,
		evalEvery: evalEvery,
		trainers:  []trainer{newTrainer(global)},
		inputs:    inputs,
		res: &Result{
			Scheme: cfg.Planner.Name(), ModelBits: modelBits,
			// The record log grows to exactly MaxRounds entries on a full
			// campaign; reserving it up front keeps append out of the
			// steady-state round.
			Records: make([]RoundRecord, 0, cfg.MaxRounds),
		},
		spentJ: make([]float64, len(cfg.Devices)),
		topo:   TopologyOf(cfg.Planner),
	}, nil
}

func (e *Engine) emitRunStart() {
	if e.cfg.Sink != nil {
		e.cfg.Sink.OnEvent(obs.RunStartEvent{
			Scheme:    e.res.Scheme,
			Users:     len(e.cfg.Devices),
			MaxRounds: e.cfg.MaxRounds,
			ModelBits: e.modelBits,
		})
	}
}

// startRunSpan opens the "fl.run" span bracketing the whole campaign; it
// is closed by the first Result call after the campaign finishes. On a
// nil Config.Trace this is a complete no-op.
func (e *Engine) startRunSpan() {
	e.runSp = e.cfg.Trace.Start(e.cfg.TraceParent, "fl.run")
	e.runSp.SetStr("scheme", e.res.Scheme)
}

// Done reports that no further round will execute (budget exhausted or an
// exit condition fired).
func (e *Engine) Done() bool { return e.stopped || e.round >= e.cfg.MaxRounds }

// drawDropout samples the per-user upload-loss coin, counting the draw so
// a snapshot can re-position the RNG stream exactly.
func (e *Engine) drawDropout() float64 {
	e.rngUsed++
	return e.rng.Float64()
}

func (e *Engine) alive(q int) bool {
	return e.cfg.BatteryCapacityJ <= 0 || e.spentJ[q] < e.cfg.BatteryCapacityJ
}

// Step executes the next training round of Algorithm 1: selection,
// broadcast, parallel local updates, sequential TDMA uploads, and FedAvg
// aggregation, with the J-round and deadline exits. It returns whether
// a round was executed; false with a nil error means the campaign is done.
func (e *Engine) Step() (bool, error) {
	if e.Done() {
		return false, nil
	}
	cfg := &e.cfg
	j := e.round
	if cfg.Sink != nil {
		cfg.Sink.OnEvent(obs.RoundStartEvent{Round: j})
	}
	// Phase spans: "fl.round" brackets the round; plan / train / upload /
	// aggregate children carry the measured-vs-modeled decomposition. All
	// span calls are nil-safe no-ops without a Trace. Error and dead-fleet
	// exits below return without ending these spans, so they are never
	// recorded — every *recorded* round has its full phase set, which the
	// inspect gate asserts.
	//helcfl:allow(spanend) deliberately un-Ended on the error and dead-fleet exits: an aborted round must never be recorded, so the inspect phase gate only sees complete rounds
	roundSp := cfg.Trace.Start(e.runSp.Ref(), "fl.round")
	roundSp.SetInt("round", int64(j))
	//helcfl:allow(spanend) deliberately un-Ended on the error and dead-fleet exits, same contract as roundSp above
	planSp := cfg.Trace.Start(roundSp.Ref(), "fl.round.plan")
	if cfg.Trace != nil {
		if tp, ok := cfg.Planner.(TracedPlanner); ok {
			tp.SetTrace(cfg.Trace, planSp.Ref())
		}
	}
	selected, freqs := cfg.Planner.PlanRound(j)
	if len(selected) == 0 {
		return false, fmt.Errorf("fl: planner %q selected no users in round %d", cfg.Planner.Name(), j)
	}
	if cfg.BatteryCapacityJ > 0 {
		// Shut-down devices no longer respond to the broadcast; the
		// FLCC proceeds with the survivors of the selection.
		keptSel := selected[:0:len(selected)]
		keptFreqs := freqs[:0:len(freqs)]
		for i, q := range selected {
			if e.alive(q) {
				keptSel = append(keptSel, q)
				keptFreqs = append(keptFreqs, freqs[i])
			}
		}
		selected, freqs = keptSel, keptFreqs
		if len(selected) == 0 {
			// The planner's entire cohort is dead; training halts.
			e.res.HaltedByDeadFleet = true
			e.stopped = true
			return false, nil
		}
	}
	planSp.SetInt("selected", int64(len(selected)))
	planSp.End()
	if cfg.Sink != nil {
		ev := obs.SelectionEvent{Round: j, Selected: selected, Freqs: freqs}
		if dd, ok := cfg.Planner.(DecisionDetailer); ok {
			if util, alpha := dd.SelectionDetail(); util != nil && alpha != nil {
				ev.Utilities = make([]float64, len(selected))
				ev.Appearances = make([]int, len(selected))
				for i, q := range selected {
					ev.Utilities[i] = util[q]
					ev.Appearances[i] = alpha[q]
				}
			}
		}
		cfg.Sink.OnEvent(ev)
	}
	e.selDevs = e.selDevs[:0]
	for _, q := range selected {
		e.selDevs = append(e.selDevs, cfg.Devices[q])
	}
	var gains []float64
	if cfg.Gains != nil {
		e.gainsBuf = e.gainsBuf[:0]
		for _, q := range selected {
			e.gainsBuf = append(e.gainsBuf, cfg.Gains.Gain(j, q, cfg.Devices[q].ChannelGain))
		}
		gains = e.gainsBuf
	}
	// round.Users aliases the engine's sim scratch: valid until the next
	// Step, which covers every use below (telemetry and battery roll-up).
	// Each user uploads to its edge aggregator and the per-edge TDMA chains
	// run in parallel.
	e.edgeBuf = growInts(e.edgeBuf, len(selected))
	for i, q := range selected {
		e.edgeBuf[i] = e.topo.EdgeOf(q)
	}
	round := e.simScratch.SimulateRoundEdges(e.selDevs, freqs, cfg.Channel, e.modelBits, cfg.LocalSteps, gains, e.edgeBuf, e.topo.NumEdges())

	trainSp := cfg.Trace.Start(roundSp.Ref(), "fl.round.train")

	// Parallel local updates (lines 6–9): clients are independent (own
	// scratch model, shared read-only broadcast), so they train on a
	// bounded worker pool. Results land at fixed indices, keeping the
	// run bit-for-bit deterministic regardless of scheduling.
	if n := e.global.NumParams(); len(e.globalFlat) != n {
		e.globalFlat = make([]float64, n)
	}
	e.global.FlatParamsInto(e.globalFlat)
	globalFlat := e.globalFlat
	if cfg.QuantizeBroadcast {
		e.bcastBuf = quantizeF32Into(e.bcastBuf, e.globalFlat)
		globalFlat = e.bcastBuf
	}
	for len(e.flats) < len(selected) {
		// One upload buffer per selection slot, kept at the cohort
		// high-water mark.
		e.flats = append(e.flats, make([]float64, len(e.globalFlat)))
	}
	e.losses = growFloats(e.losses, len(selected))
	e.wall = nil
	if cfg.Sink != nil {
		e.wallBuf = growFloats(e.wallBuf, len(selected))
		e.wall = e.wallBuf
	}
	e.trainSelected(selected, globalFlat)
	flats, lossesByUser, wallSec := e.flats, e.losses, e.wall
	if cfg.Trace != nil {
		// Modeled counterpart of the measured train phase: the Eq. (4)–(5)
		// compute makespan (parallel users — the max delay) and energy.
		maxCal := 0.0
		for _, u := range round.Users {
			if u.ComputeDelay > maxCal {
				maxCal = u.ComputeDelay
			}
		}
		trainSp.SetFloat("model_sec", maxCal)
		trainSp.SetFloat("model_j", round.ComputeEnergy)
	}
	trainSp.End()

	if cfg.Sink != nil {
		// Per-user spans. round.Users is in TDMA transmission order with
		// User = device ID (== fleet index, the same identification the
		// battery accounting uses).
		siOf := make(map[int]int, len(selected))
		for i, q := range selected {
			siOf[q] = i
		}
		for _, u := range round.Users {
			si, ok := siOf[u.User]
			if !ok {
				continue
			}
			cfg.Sink.OnEvent(obs.LocalUpdateEvent{
				Round: j, User: u.User,
				FreqHz: u.Freq, SimSec: u.ComputeDelay, EnergyJ: u.ComputeEnergy,
				WallSec: wallSec[si], Loss: lossesByUser[si],
			})
			cfg.Sink.OnEvent(obs.UploadEvent{
				Round: j, User: u.User,
				SimSec: u.UploadDelay, EnergyJ: u.UploadEnergy,
				StartSec: u.UploadStart, EndSec: u.UploadEnd, WaitSec: u.Wait,
			})
		}
	}

	// Sequential post-processing and FedAvg (line 10).
	uploadSp := cfg.Trace.Start(roundSp.Ref(), "fl.round.upload")
	uploads := e.uploadsBuf[:0]
	weights := e.weightsBuf[:0]
	upEdges := e.upEdgesBuf[:0]
	lossSum := 0.0
	failed := 0
	for si, q := range selected {
		flat := flats[si]
		lossSum += lossesByUser[si]
		if cfg.DropoutProb > 0 && e.drawDropout() < cfg.DropoutProb {
			// The user computed and transmitted, but the FLCC never
			// receives a usable model; costs are already accounted in
			// the round simulation.
			failed++
			if cfg.Sink != nil {
				cfg.Sink.OnEvent(obs.DropoutEvent{Round: j, User: q})
			}
			continue
		}
		if cfg.Compressor != nil {
			// Compression operates on the model update Δ = θ_q − θ_G
			// (the standard practice for sparsification/quantization:
			// deltas concentrate energy in few coordinates, raw weights
			// do not). The server reconstructs θ_G + C(Δ). The delta
			// buffer is engine scratch; Compressor.Apply may still
			// allocate internally.
			e.deltaBuf = growFloats(e.deltaBuf, len(flat))
			delta := e.deltaBuf
			for j := range flat {
				delta[j] = flat[j] - globalFlat[j]
			}
			delta = cfg.Compressor.Apply(delta)
			for j := range flat {
				flat[j] = globalFlat[j] + delta[j]
			}
		}
		if cfg.QuantizeUploads {
			// In place: flat is the client's upload buffer, dead until its
			// next local update overwrites it.
			quantizeF32InPlace(flat)
		}
		uploads = append(uploads, flat)
		weights = append(weights, cfg.UserData[q].N())
		upEdges = append(upEdges, e.edgeBuf[si])
	}
	e.uploadsBuf, e.weightsBuf, e.upEdgesBuf = uploads, weights, upEdges
	if cfg.Trace != nil {
		// Modeled counterpart of the measured upload phase: Eq. (7)–(8)
		// total TDMA airtime and upload energy.
		totCom := 0.0
		for _, u := range round.Users {
			totCom += u.UploadDelay
		}
		uploadSp.SetFloat("model_sec", totCom)
		uploadSp.SetFloat("model_j", round.UploadEnergy)
		uploadSp.SetInt("failed", int64(failed))
	}
	uploadSp.End()
	aggSp := cfg.Trace.Start(roundSp.Ref(), "fl.round.aggregate")
	if len(uploads) > 0 {
		e.avgBuf = growFloats(e.avgBuf, len(uploads[0]))
		FedAvgHierInto(e.avgBuf, &e.hierScratch, uploads, weights, upEdges, e.topo.NumEdges())
		e.global.SetFlatParams(e.avgBuf)
		if cfg.Sink != nil {
			cfg.Sink.OnEvent(obs.AggregateEvent{Round: j, Uploads: len(uploads)})
		}
	}
	if obs, ok := cfg.Planner.(Observer); ok {
		obs.ObserveRound(j, selected, lossesByUser)
	}
	aggSp.SetInt("uploads", int64(len(uploads)))
	aggSp.End()

	e.cumTime += round.Makespan
	e.cumEnergy += round.TotalEnergy
	aliveCount := len(cfg.Devices)
	if cfg.BatteryCapacityJ > 0 {
		for _, u := range round.Users {
			wasAlive := e.alive(u.User)
			e.spentJ[u.User] += u.ComputeEnergy + u.UploadEnergy
			if cfg.Sink != nil && wasAlive && !e.alive(u.User) {
				cfg.Sink.OnEvent(obs.BatteryEvent{Round: j, User: u.User, SpentJ: e.spentJ[u.User]})
			}
		}
		aliveCount = 0
		for q := range cfg.Devices {
			if e.alive(q) {
				aliveCount++
			}
		}
	}
	rec := RoundRecord{
		Round:         j,
		Selected:      selected,
		Freqs:         freqs,
		Delay:         round.Makespan,
		Energy:        round.TotalEnergy,
		ComputeEnergy: round.ComputeEnergy,
		UploadEnergy:  round.UploadEnergy,
		Slack:         round.TotalSlack,
		CumTime:       e.cumTime,
		CumEnergy:     e.cumEnergy,
		TrainLoss:     lossSum / float64(len(selected)),
		Failed:        failed,
		AliveDevices:  aliveCount,
	}

	lastRound := j == cfg.MaxRounds-1
	deadlineHit := cfg.DeadlineSec > 0 && e.cumTime >= cfg.DeadlineSec
	if j%e.evalEvery == 0 || lastRound || deadlineHit {
		evalSp := cfg.Trace.Start(roundSp.Ref(), "fl.round.eval")
		params := e.avgBuf
		if len(uploads) == 0 {
			// Every upload was lost: the global model is still the one
			// this round broadcast.
			params = e.globalFlat
		}
		tl, ta, workers := e.evaluate(params)
		evalSp.SetInt("rows", int64(cfg.Test.N()))
		evalSp.SetInt("workers", int64(workers))
		evalSp.End()
		rec.Evaluated = true
		rec.TestLoss, rec.TestAccuracy = tl, ta
		if ta > e.res.BestAccuracy {
			e.res.BestAccuracy = ta
		}
		e.res.FinalAccuracy = ta
	}
	if cfg.Sink != nil {
		cfg.Sink.OnEvent(obs.RoundEndEvent{
			Round: rec.Round, Selected: rec.Selected,
			Failed: rec.Failed, Alive: rec.AliveDevices,
			DelaySec: rec.Delay, EnergyJ: rec.Energy,
			ComputeJ: rec.ComputeEnergy, UploadJ: rec.UploadEnergy,
			SlackSec: rec.Slack, CumTimeSec: rec.CumTime, CumEnergyJ: rec.CumEnergy,
			TrainLoss: rec.TrainLoss, Evaluated: rec.Evaluated,
			TestLoss: rec.TestLoss, TestAccuracy: rec.TestAccuracy,
		})
	}
	e.res.Records = append(e.res.Records, rec)
	if deadlineHit {
		e.res.StoppedByDeadline = true
		e.stopped = true
	}
	if cfg.Trace != nil {
		// The modeled round roll-up (Eq. 10–11) next to the measured wall
		// time of the same round.
		roundSp.SetFloat("model_delay_sec", rec.Delay)
		roundSp.SetFloat("model_energy_j", rec.Energy)
	}
	roundSp.End()
	e.round++
	return true, nil
}

// Result finalizes and returns the run: totals are rolled up and, on the
// first call after the campaign finished, the RunEnd event fires. Calling
// it mid-campaign returns the in-progress result (no RunEnd).
func (e *Engine) Result() *Result {
	e.res.Model = e.global
	e.res.TotalTime = e.cumTime
	e.res.TotalEnergy = e.cumEnergy
	if e.Done() && !e.finished {
		e.finished = true
		e.Close()
		e.runSp.End()
		if e.cfg.Sink != nil {
			e.cfg.Sink.OnEvent(obs.RunEndEvent{
				Scheme: e.res.Scheme, Rounds: len(e.res.Records),
				TotalTimeSec: e.res.TotalTime, TotalEnergyJ: e.res.TotalEnergy,
				FinalAccuracy: e.res.FinalAccuracy, BestAccuracy: e.res.BestAccuracy,
				StoppedByDeadline: e.res.StoppedByDeadline, HaltedByDeadFleet: e.res.HaltedByDeadFleet,
			})
		}
	}
	return e.res
}

// Run executes Algorithm 1: initialization, then iterative rounds of
// selection, broadcast, parallel local updates, sequential TDMA uploads, and
// FedAvg aggregation, with the J-round and deadline exits.
func Run(cfg Config) (*Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	for {
		ok, err := e.Step()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	return e.Result(), nil
}

// trainSelected runs the round's local updates: inline on the calling
// goroutine when one worker is effective (small cohorts, single-core,
// tensor.SetWorkers(1)), otherwise fanned out on the engine's persistent
// worker pool. Either way results land at fixed slot indices, so the
// trajectory is bit-for-bit identical across worker counts.
func (e *Engine) trainSelected(selected []int, globalFlat []float64) {
	e.broadcast = globalFlat
	// tensor.Workers() defaults to GOMAXPROCS, matching the old
	// semaphore bound; tests force the pool on or off through the same
	// knob the kernels use.
	w := tensor.Workers()
	if w > len(selected) {
		w = len(selected)
	}
	if w <= 1 {
		for si, q := range selected {
			e.trainOne(e.trainers[0], si, q)
		}
		return
	}
	e.ensurePool(w)
	e.taskWG.Add(len(selected))
	for si, q := range selected {
		e.taskCh <- poolTask{si: si, q: q}
	}
	e.taskWG.Wait()
}

// evaluate measures the global model, whose flat parameters are params, on
// the test set, and returns its loss, accuracy and the number of workers
// that shared the forward passes. Each worker loads params into its trainer
// and forwards one row range of the test set; the loss and accuracy are
// then reduced serially, so the result is bit-for-bit Evaluate's at every
// worker count. The global model itself runs no forward pass and holds no
// evaluation scratch.
func (e *Engine) evaluate(params []float64) (loss, accuracy float64, workers int) {
	w := tensor.Workers()
	if e.taskCh != nil {
		// A live pool fixes the worker count.
		w = min(w, len(e.trainers))
	}
	if e.eval == nil || e.eval.workers != w {
		e.eval = newEvaluator(e.cfg.Test, e.flatten, w)
	}
	ev := e.eval
	ev.size(e.trainers[0].model)
	e.evalParams = params
	ranges := ev.ranges()
	if ranges == 1 {
		e.evalOne(e.trainers[0], 0)
	} else {
		e.ensurePool(ranges)
		e.taskWG.Add(ranges)
		for r := 0; r < ranges; r++ {
			e.taskCh <- poolTask{si: r, eval: true}
		}
		e.taskWG.Wait()
	}
	loss, accuracy = ev.reduce()
	return loss, accuracy, ranges
}

// evalOne loads the round's global parameters into trainer t and forwards
// the evaluator's row range r.
func (e *Engine) evalOne(t trainer, r int) {
	t.model.SetFlatParams(e.evalParams)
	e.eval.forwardRange(t.model, r)
}

// trainOne trains user q on trainer t into result slot si using the
// engine's round scratch (broadcast, flats, losses, wall).
func (e *Engine) trainOne(t trainer, si, q int) {
	cfg := &e.cfg
	var t0 time.Time
	if e.wall != nil {
		// Wall-clock span for obs telemetry only: it never feeds a
		// decision, a record, or the model, so replay determinism
		// holds (the conformance tests pin this).
		t0 = time.Now() //helcfl:allow(nondeterminism) telemetry-only span; no control-flow or model effect
	}
	e.losses[si] = LocalUpdate(t.model, t.loss, e.inputs[q], cfg.UserData[q].Labels, e.broadcast, cfg.LR, cfg.LocalSteps, e.flats[si])
	if e.wall != nil {
		e.wall[si] = time.Since(t0).Seconds() //helcfl:allow(nondeterminism) telemetry-only span; no control-flow or model effect
	}
}

// newTrainer clones the global model for one worker. The clone's parameter
// values are irrelevant — every update starts by overwriting them from the
// broadcast — it only has to share the global model's structure.
func newTrainer(global *nn.Sequential) trainer {
	return trainer{model: global.Clone(), loss: nn.NewSoftmaxCrossEntropy()}
}

// ensurePool lazily spawns the persistent pool workers, one trainer each.
// The channel is buffered to the fleet size, so a whole round's local
// updates enqueue without blocking even before any worker wakes; an
// evaluation sends one task per worker. The pool lives until Close; each
// round synchronizes through taskWG.
func (e *Engine) ensurePool(w int) {
	if e.taskCh != nil {
		return
	}
	for len(e.trainers) < w {
		e.trainers = append(e.trainers, newTrainer(e.global))
	}
	e.taskCh = make(chan poolTask, len(e.cfg.Devices))
	e.poolWG.Add(w)
	for i := 0; i < w; i++ {
		go e.poolWorker(e.taskCh, e.trainers[i])
	}
}

// poolWorker serves tasks until its channel is closed. The channel is an
// argument, not a read of e.taskCh: Close nils that field, and a worker
// scheduled only after that would otherwise park forever on a nil channel.
func (e *Engine) poolWorker(tasks <-chan poolTask, t trainer) {
	defer e.poolWG.Done()
	for task := range tasks {
		if task.eval {
			e.evalOne(t, task.si)
		} else {
			e.trainOne(t, task.si, task.q)
		}
		e.taskWG.Done()
	}
}

// Close stops the worker pool and returns once every worker
// has exited. Result calls it when the campaign finishes; a caller that
// abandons an engine mid-campaign calls it directly. Idempotent.
func (e *Engine) Close() {
	if e.taskCh != nil {
		close(e.taskCh)
		e.taskCh = nil
		e.poolWG.Wait()
	}
}

// growFloats returns buf resized to n elements, reusing its backing array
// when capacity allows. Contents are unspecified; callers overwrite.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// growInts is growFloats for index buffers.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// quantizeF32Into round-trips src through float32 — the upload wire
// precision — into a reused destination buffer, returned (possibly regrown).
func quantizeF32Into(dst, src []float64) []float64 {
	dst = growFloats(dst, len(src))
	for i, v := range src {
		dst[i] = float64(float32(v))
	}
	return dst
}

// quantizeF32InPlace round-trips flat through float32 in place.
func quantizeF32InPlace(flat []float64) {
	for i, v := range flat {
		flat[i] = float64(float32(v))
	}
}
