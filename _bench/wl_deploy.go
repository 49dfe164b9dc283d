package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"helcfl/_bench/harness"
	"helcfl/internal/checkpoint"
	"helcfl/internal/core"
	"helcfl/internal/dataset"
	"helcfl/internal/deploy"
	"helcfl/internal/device"
	"helcfl/internal/experiments"
	"helcfl/internal/fl"
	"helcfl/internal/nn"
	"helcfl/internal/obs/span"
	"helcfl/internal/selection"
	"helcfl/internal/sim"
	"helcfl/internal/wireless"
)

// deploy_loopback: an in-process deploy.Server on 127.0.0.1 with durable
// checkpoints (WAL before ack, snapshot per round) and two deploy.Clients
// over real HTTP, the paper's MLP, both users selected every round. Codec,
// WAL fsync and snapshots dominate; training is tiny.
var deployWorkload = workload{
	name:      "deploy_loopback",
	seedCycle: 3,
	campaign: func(seed int64, quick bool, o *outcome) (campaign, error) {
		run, err := runDeploy(seed, quick, o, nil)
		if err != nil {
			return campaign{}, err
		}
		return run.campaign, nil
	},
	traced: deployTraced,
}

// Two users holding deploySamples training samples each.
const (
	deployUsers   = 2
	deploySamples = 40
)

func deployRounds(quick bool) int {
	if quick {
		return 40
	}
	return 300
}

// deployScratchDir is where checkpoint directories go: inside the working
// directory, under the build-output directory .gitignore already names.
const deployScratchDir = ".bench_build/tmp"

// recordingPlanner is the server's HELCFL planner with every plan kept, so
// the traced pass can evaluate the modeled round costs (Eqs. 10–11)
// afterwards. Embedding keeps the planner's checkpoint methods in the method
// set: the server snapshots exactly the state it would without the wrapper.
type recordingPlanner struct {
	*selection.HELCFLPlanner
	devs  []*device.Device
	plans []recordedPlan
}

type recordedPlan struct {
	selected []int
	freqs    []float64
}

func (p *recordingPlanner) PlanRound(j int) ([]int, []float64) {
	sel, freqs := p.HELCFLPlanner.PlanRound(j)
	p.plans = append(p.plans, recordedPlan{append([]int(nil), sel...), append([]float64(nil), freqs...)})
	return sel, freqs
}

// deployObserver is the traced pass's view of the wire: the clients' timing
// transport and a span per request on the server side.
type deployObserver struct {
	transport *harness.Transport
	rec       *span.Recorder
}

type deployRun struct {
	campaign
	accuracy float64
	roundAt  []time.Time
	// Modeled round costs (Eqs. 10–11) of the server's plans; traced pass only.
	simDelayS, simEnergyJ float64
}

// runDeploy stands a server and its clients up, runs the campaign to the
// end, verifies it, and tears everything down. obs is nil in the untraced
// pass.
func runDeploy(seed int64, quick bool, o *outcome, obs *deployObserver) (*deployRun, error) {
	rounds := deployRounds(quick)
	spec := experiments.Paper().Spec()
	ch := wireless.DefaultChannel()

	t0 := time.Now()
	synth := dataset.GenerateSynth(dataset.SynthConfig{
		Classes: spec.Classes, C: spec.InC, H: spec.H, W: spec.W,
		TrainN: deploySamples * deployUsers, TestN: 200, Noise: 2.2, Seed: seed,
	})
	rng := rand.New(rand.NewSource(seed + 1))
	userData := dataset.UserDatasets(synth.Train, dataset.PartitionIID(synth.Train, deployUsers, rng))
	modelBits := nn.ModelBits(spec.Build(rand.New(rand.NewSource(seed + 3))))

	if err := os.MkdirAll(deployScratchDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(deployScratchDir, "deploy-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	run := &deployRun{roundAt: make([]time.Time, 0, rounds)}
	var planner *recordingPlanner
	srv, err := deploy.NewServer(deploy.ServerConfig{
		Spec:          spec,
		Seed:          seed + 100,
		ExpectedUsers: deployUsers,
		Rounds:        rounds,
		CheckpointDir: dir,
		NewPlanner: func(devs []*device.Device) (fl.Planner, error) {
			h, err := selection.NewHELCFL(devs, ch, modelBits, core.Params{Eta: 0.7, Fraction: 1, StepsPerRound: 1, Clamp: true})
			if err != nil {
				return nil, err
			}
			if obs == nil {
				return h, nil
			}
			planner = &recordingPlanner{HELCFLPlanner: h, devs: devs}
			return planner, nil
		},
		// Called under the server's lock, one round at a time.
		RoundHook: func(deploy.RoundSummary) { run.roundAt = append(run.roundAt, time.Now()) },
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	var handler http.Handler = srv
	if obs != nil {
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sp := obs.rec.Start(obs.rec.Root(), spDeployServer+r.URL.Path)
			srv.ServeHTTP(w, r)
			sp.End()
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	defer func() {
		// Shutdown waits for the handlers; Serve then returns ErrServerClosed.
		_ = httpSrv.Shutdown(context.Background())
		<-served
	}()

	base := &http.Transport{MaxIdleConnsPerHost: deployUsers}
	defer base.CloseIdleConnections()
	var rt http.RoundTripper = base
	if obs != nil {
		obs.transport.Base = base
		rt = obs.transport
	}
	httpClient := &http.Client{Transport: rt}
	clients := make([]*deploy.Client, deployUsers)
	// The two devices are drawn from the paper's catalog ranges.
	catalog := device.DefaultCatalogConfig()
	catalog.Q = deployUsers
	fleet := device.NewCatalog(catalog, rand.New(rand.NewSource(seed+2)))
	for q := range clients {
		clients[q], err = deploy.NewClient(deploy.ClientConfig{
			BaseURL: "http://" + ln.Addr().String(),
			Info: deploy.RegisterRequest{
				User:        q,
				NumSamples:  userData[q].N(),
				FMin:        fleet[q].FMin,
				FMax:        fleet[q].FMax,
				TxPower:     fleet[q].TxPower,
				ChannelGain: fleet[q].ChannelGain,
			},
			Data:         userData[q],
			Spec:         spec,
			LR:           0.4,
			LocalSteps:   1,
			PollInterval: time.Millisecond,
			HTTPClient:   httpClient,
		})
		if err != nil {
			return nil, err
		}
	}
	run.setupS = time.Since(t0).Seconds()

	// The campaign: every client registers, then trains until the server
	// reports done.
	errs := make([]error, deployUsers)
	var wg sync.WaitGroup
	cpu0 := harness.CPUSeconds()
	start := time.Now()
	for q := range clients {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			errs[q] = clients[q].Run()
		}(q)
	}
	wg.Wait()
	run.cpuS = harness.CPUSeconds() - cpu0

	for q, err := range errs {
		o.check(err == nil, "deploy_loopback: client %d: %v", q, err)
		o.check(clients[q].RoundsTrained == rounds, "deploy_loopback: client %d trained %d rounds, want %d", q, clients[q].RoundsTrained, rounds)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if len(run.roundAt) != rounds {
		return nil, fmt.Errorf("deploy_loopback: server closed %d of %d rounds", len(run.roundAt), rounds)
	}

	// A round's sample is the time between consecutive round closes; the
	// first runs from the clients' start and includes registration.
	run.rounds, run.cells = rounds, 1
	run.roundMs = make([]float64, rounds)
	prev := start
	for j, at := range run.roundAt {
		run.roundMs[j] = millis(at.Sub(prev))
		prev = at
	}
	run.runS = prev.Sub(start).Seconds()

	global := srv.Global()
	_, run.accuracy = fl.Evaluate(global, synth.Test, true)
	run.digest = digestModel(global)
	o.check(run.accuracy >= 0.12, "deploy_loopback: final accuracy %.4f under the floor 0.12", run.accuracy)
	if planner != nil {
		o.check(len(planner.plans) >= rounds, "deploy_loopback: %d plans recorded for %d rounds", len(planner.plans), rounds)
		for _, plan := range planner.plans {
			devs := make([]*device.Device, len(plan.selected))
			for i, q := range plan.selected {
				devs[i] = planner.devs[q]
			}
			res := sim.SimulateRound(devs, plan.freqs, ch, modelBits, 1)
			run.simDelayS += res.Makespan
			run.simEnergyJ += res.TotalEnergy
		}
	}
	return run, nil
}

// spDeployServer prefixes the server-side span of a request; the path follows.
const spDeployServer = "deploy.server"

// exchangeStats reduces the client-side exchanges on one path.
func exchangeStats(all []harness.Exchange, path string) (ms []float64, reqBytes, respBytes int64, n int) {
	for _, e := range all {
		if e.Path == path {
			ms = append(ms, millis(e.Dur))
			reqBytes += e.ReqBytes
			respBytes += e.RespBytes
			n++
		}
	}
	return ms, reqBytes, respBytes, n
}

func deployTraced(seed int64, quick bool, o *outcome, m metrics) ([]span.Rec, error) {
	rounds := deployRounds(quick)

	// Plain reference campaign.
	plain, err := runDeploy(seed, quick, o, nil)
	if err != nil {
		return nil, err
	}

	// Traced campaign: timing transport under the clients, a span around
	// every Server.ServeHTTP.
	coll := &span.Collector{}
	obs := &deployObserver{
		transport: &harness.Transport{},
		rec:       span.NewRecorder(uint64(seed), span.Options{Capacity: 1, Exporter: coll}),
	}
	traced, err := runDeploy(seed, quick, o, obs)
	if err != nil {
		return nil, err
	}
	o.check(traced.digest == plain.digest, "deploy_loopback: traced campaign trained a different model")
	m["fl.final_accuracy"] = traced.accuracy
	m["sim.delay_s"], m["sim.energy_j"] = traced.simDelayS, traced.simEnergyJ
	m["trace.overhead_pct"] = overheadPct(traced.runS, plain.runS)
	setTiming(m, "deploy.round.p50_ms", "ms", traced.roundMs)
	m["deploy.round.p99_ms"] = harness.Percentile(harness.Sorted(traced.roundMs), 99)

	all := obs.transport.Exchanges()
	non2xx := 0
	var wire int64
	for _, e := range all {
		if e.Status < 200 || e.Status > 299 {
			non2xx++
		}
		wire += e.ReqBytes + e.RespBytes
	}
	m["deploy.http.non2xx"] = float64(non2xx)
	o.checkN(len(all), non2xx, "deploy_loopback: HTTP exchanges with a non-2xx status")
	m["deploy.wire_bytes_per_round"] = float64(wire) / float64(rounds)

	regMs, _, _, _ := exchangeStats(all, "/register")
	pollMs, _, _, polls := exchangeStats(all, "/poll")
	modelMs, _, modelBytes, models := exchangeStats(all, "/model")
	upMs, upBytes, _, ups := exchangeStats(all, "/upload")
	setTiming(m, "deploy.register.p50_ms", "ms", regMs)
	setTiming(m, "deploy.poll.p50_ms", "ms", pollMs)
	m["deploy.polls_per_round"] = float64(polls) / float64(rounds)
	setTiming(m, "deploy.model.p50_ms", "ms", modelMs)
	m["deploy.model.p99_ms"] = harness.Percentile(harness.Sorted(modelMs), 99)
	setTiming(m, "deploy.upload.p50_ms", "ms", upMs)
	m["deploy.upload.p99_ms"] = harness.Percentile(harness.Sorted(upMs), 99)
	if models > 0 {
		m["deploy.model.bytes"] = float64(modelBytes) / float64(models)
	}
	uploadBytes := 0
	if ups > 0 {
		uploadBytes = int(upBytes) / ups
		m["deploy.upload.bytes"] = float64(uploadBytes)
	}
	recs := coll.Snapshot()
	setTiming(m, "deploy.upload.server_p50_ms", "ms", harness.DurationsMs(recs, spDeployServer+"/upload"))

	// Layer shares: the server's handler time is the deploy layer; what the
	// client waited beyond it is transport and queueing; the gap between a
	// client's model fetch and its upload is its local update (nn).
	var serverMs, clientMs float64
	for _, r := range recs {
		serverMs += float64(r.DurNs) / 1e6
	}
	for _, e := range all {
		clientMs += millis(e.Dur)
	}
	trainMs := clientTrainMs(all)
	if total := clientMs + trainMs; total > 0 {
		m["layer.deploy.self_pct"] = 100 * serverMs / total
		m["layer.transport.self_pct"] = 100 * (clientMs - serverMs) / total
		m["layer.nn.self_pct"] = 100 * trainMs / total
	}

	// The durability primitives alone, at this campaign's payload sizes.
	if err := checkpointMetrics(m, uploadBytes, quick); err != nil {
		return nil, err
	}
	spec := experiments.Paper().Spec()
	codecMetrics(m, spec, quick)
	replayKernels(m, spec, deploySamples, 0, quick)
	return recs, nil
}

// clientTrainMs sums, over both clients, the time between the end of a model
// fetch and the start of the upload that follows it: the client's decode,
// local update and encode. Every fetch is followed by exactly one upload, and
// a sum of differences does not care which fetch is paired with which upload,
// so the exchanges need no matching.
func clientTrainMs(all []harness.Exchange) float64 {
	var fetchEnd, uploadStart []time.Time
	for _, e := range all {
		switch e.Path {
		case "/model":
			fetchEnd = append(fetchEnd, e.Start.Add(e.Dur))
		case "/upload":
			uploadStart = append(uploadStart, e.Start)
		}
	}
	if len(fetchEnd) != len(uploadStart) {
		return 0
	}
	var sumFetch, sumUpload time.Duration
	origin := time.Time{}
	if len(fetchEnd) > 0 {
		origin = fetchEnd[0]
	}
	for i := range fetchEnd {
		sumFetch += fetchEnd[i].Sub(origin)
		sumUpload += uploadStart[i].Sub(origin)
	}
	return millis(sumUpload - sumFetch)
}

// checkpointMetrics times the WAL append (write + fsync), the snapshot file
// write (temp file, fsync, rename, directory fsync) and the snapshot framing
// on payloads the size this campaign produces.
func checkpointMetrics(m metrics, uploadBytes int, quick bool) error {
	reps := 200
	if quick {
		reps = 20
	}
	if err := os.MkdirAll(deployScratchDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(deployScratchDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	upload := make([]byte, uploadBytes)
	// A snapshot carries the float64 global model (twice the float32 wire
	// size) plus the fleet and planner state.
	snapshot := make([]byte, 2*uploadBytes+1024)
	wal, _, err := checkpoint.OpenWAL(filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	var walUs, snapMs, encUs []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		err := wal.Append(checkpoint.Record{Type: checkpoint.RecordUpload, Round: i, User: 0, Payload: upload})
		walUs = append(walUs, float64(time.Since(t).Nanoseconds())/1e3)
		if err != nil {
			return errors.Join(err, wal.Close())
		}
		t = time.Now()
		err = checkpoint.WriteFile(filepath.Join(dir, "snapshot"), snapshot)
		snapMs = append(snapMs, millis(time.Since(t)))
		if err != nil {
			return errors.Join(err, wal.Close())
		}
		t = time.Now()
		checkpoint.EncodeSnapshot(snapshot)
		encUs = append(encUs, float64(time.Since(t).Nanoseconds())/1e3)
		if i%2 == 1 {
			// The server truncates the log at every round boundary.
			if err := wal.Reset(); err != nil {
				return errors.Join(err, wal.Close())
			}
		}
	}
	setTiming(m, "checkpoint.wal_append.p50_us", "us", walUs)
	setTiming(m, "checkpoint.snapshot_write.p50_ms", "ms", snapMs)
	setTiming(m, "checkpoint.encode_snapshot.p50_us", "us", encUs)
	return wal.Close()
}
