package deploy

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"helcfl/internal/checkpoint"
	"helcfl/internal/device"
	"helcfl/internal/fl"
	"helcfl/internal/nn"
	"helcfl/internal/obs"
	"helcfl/internal/obs/flight"
	"helcfl/internal/obs/span"
)

// RoundSummary describes one closed round, delivered to ServerConfig.RoundHook.
type RoundSummary struct {
	// Round is the closed round's index.
	Round int
	// Selected is the planner's cohort in selection order; Uploaded and
	// Missing partition it (both in selection order).
	Selected, Uploaded, Missing []int
	// Partial reports that the straggler deadline closed the round before
	// every selected upload arrived.
	Partial bool
	// Global is a copy of the post-aggregation flat parameter vector.
	Global []float64
}

// ServerConfig configures the FLCC server.
type ServerConfig struct {
	// Spec is the shared model architecture; the server owns the global
	// model.
	Spec nn.ModelSpec
	// Seed initializes the global model.
	Seed int64
	// ExpectedUsers is the fleet size Q; training starts when all have
	// registered.
	ExpectedUsers int
	// Rounds is the round budget J.
	Rounds int
	// NewPlanner builds the scheduling policy once the fleet's resource
	// information is known (the devices carry what registration reported).
	NewPlanner func(devs []*device.Device) (fl.Planner, error)
	// RoundDeadline, when positive, is the straggler deadline: once it has
	// elapsed since the round opened, the server closes the round with a
	// partial aggregation as soon as at least Quorum of the selected cohort
	// has uploaded; users that never delivered are dropped from the round
	// (and reported via Sink dropout events). Below quorum the deadline
	// re-arms — the server keeps waiting rather than aggregate nothing.
	// 0 disables the deadline: every selected upload is awaited, as before.
	RoundDeadline time.Duration
	// Quorum is the fraction of the selected cohort required for a partial
	// aggregation (ceil(Quorum×|selected|), at least 1). 0 defaults to 0.5.
	Quorum float64
	// Sink, when non-nil, receives the server's round lifecycle as engine
	// events (round start, selection, dropouts, aggregation, round end).
	// Calls are serialized under the server's lock; keep sinks fast.
	Sink obs.EventSink
	// RoundHook, when non-nil, observes every closed round (called with the
	// server lock held; keep it fast). Tests use it to pin the global-model
	// trajectory.
	RoundHook func(RoundSummary)
	// Log receives request and panic log lines; nil disables logging.
	Log Logf
	// Trace, when non-nil, records an "http.server" span per request —
	// parented at the caller's Helcfl-Trace header when present, so a
	// round stitches across client and server traces — and enables the
	// flight recorder: the span ring plus the last engine events are
	// served at /debug/flightrec for live crash forensics.
	Trace *span.Recorder
	// CheckpointDir, when non-empty, enables durable state: a snapshot file
	// written at every round boundary and a write-ahead log of accepted
	// uploads, via internal/checkpoint. See persist.go for the recovery
	// contract.
	CheckpointDir string
	// Resume restores the campaign from CheckpointDir at construction. A
	// missing snapshot is not an error (first incarnation starts fresh); a
	// corrupt one is.
	Resume bool
}

// Server is the FLCC: an http.Handler exposing the FL protocol.
type Server struct {
	cfg     ServerConfig
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in logging/recovery middleware
	metrics *obs.Registry

	// Server-level metrics, registered once at construction.
	mReqs        *obs.CounterVec
	mPanics      *obs.Counter
	mUploads     *obs.Counter
	mAggs        *obs.Counter
	mPartial     *obs.Counter
	mDropouts    *obs.Counter
	mRound       *obs.Gauge
	mBytesUp     *obs.Counter
	mBytesDown   *obs.Counter
	mRejected    *obs.Counter
	mCkptWrites  *obs.Counter
	mCkptErrors  *obs.Counter
	mRestores    *obs.Counter
	mWALAppends  *obs.Counter
	mWALReplays  *obs.Counter
	mRecoverySec *obs.Gauge

	mu         sync.Mutex
	phase      Phase
	closed     bool
	devices    []*device.Device
	registered map[int]bool
	planner    fl.Planner

	round      int
	selOrder   []int           // current round's cohort in planner order
	selected   map[int]float64 // user → assigned frequency
	uploads    map[int][]float64
	global     *nn.Sequential
	payload    []byte // serialized global model for the current round
	roundTimer *time.Timer
	bytesUp    int64
	bytesDown  int64
	wal        *checkpoint.WAL // nil when CheckpointDir is unset
}

// NewServer validates the configuration and returns a server ready to
// accept registrations.
func NewServer(cfg ServerConfig) (*Server, error) {
	switch {
	case cfg.ExpectedUsers <= 0:
		return nil, fmt.Errorf("deploy: non-positive fleet size %d", cfg.ExpectedUsers)
	case cfg.Rounds <= 0:
		return nil, fmt.Errorf("deploy: non-positive round budget %d", cfg.Rounds)
	case cfg.NewPlanner == nil:
		return nil, fmt.Errorf("deploy: no planner factory")
	case cfg.RoundDeadline < 0:
		return nil, fmt.Errorf("deploy: negative round deadline %v", cfg.RoundDeadline)
	case cfg.Quorum < 0 || cfg.Quorum > 1:
		return nil, fmt.Errorf("deploy: quorum %g outside [0,1]", cfg.Quorum)
	}
	if cfg.Quorum == 0 {
		cfg.Quorum = 0.5
	}
	s := &Server{
		cfg:        cfg,
		phase:      PhaseRegistering,
		devices:    make([]*device.Device, cfg.ExpectedUsers),
		registered: map[int]bool{},
		uploads:    map[int][]float64{},
		// A private registry, so parallel servers never share counters.
		metrics: obs.NewRegistry(),
	}
	s.mReqs = s.metrics.CounterVec("helcfl_http_requests_total", "HTTP requests served, by path.", "path")
	s.mPanics = s.metrics.Counter("helcfl_http_panics_total", "Handler panics recovered by the middleware.")
	s.mUploads = s.metrics.Counter("helcfl_server_uploads_total", "Accepted model uploads.")
	s.mAggs = s.metrics.Counter("helcfl_server_aggregations_total", "Completed FedAvg aggregations.")
	s.mPartial = s.metrics.Counter("helcfl_server_partial_rounds_total", "Rounds closed by the straggler deadline with a partial cohort.")
	s.mDropouts = s.metrics.Counter("helcfl_server_dropouts_total", "Selected users whose upload missed the straggler deadline.")
	s.mRound = s.metrics.Gauge("helcfl_server_round", "Current training round.")
	s.mBytesUp = s.metrics.Counter("helcfl_server_bytes_up_total", "Model payload bytes received from users.")
	s.mBytesDown = s.metrics.Counter("helcfl_server_bytes_down_total", "Model payload bytes broadcast to users.")
	s.mRejected = s.metrics.Counter("helcfl_server_rejected_uploads_total", "Uploads rejected as malformed or non-finite.")
	s.mCkptWrites = s.metrics.Counter("helcfl_checkpoint_writes_total", "Durable snapshots written.")
	s.mCkptErrors = s.metrics.Counter("helcfl_checkpoint_errors_total", "Snapshot writes that failed (state retried at the next boundary).")
	s.mRestores = s.metrics.Counter("helcfl_checkpoint_restores_total", "Campaign restores from a snapshot.")
	s.mWALAppends = s.metrics.Counter("helcfl_wal_records_total", "Upload records appended to the write-ahead log.")
	s.mWALReplays = s.metrics.Counter("helcfl_wal_replayed_total", "Upload records re-applied from the write-ahead log during recovery.")
	s.mRecoverySec = s.metrics.Gauge("helcfl_recovery_seconds", "Wall-clock duration of the last restore, including WAL replay.")
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/register", s.handleRegister)
	s.mux.HandleFunc("/poll", s.handlePoll)
	s.mux.HandleFunc("/model", s.handleModel)
	s.mux.HandleFunc("/upload", s.handleUpload)
	s.mux.HandleFunc("/status", s.handleStatus)
	obs.MountDebug(s.mux, s.metrics)
	if s.cfg.Trace != nil {
		// Flight recorder: tee the event stream into a ring and expose the
		// combined span+event dump for live inspection.
		fr := flight.New(s.cfg.Trace, 512)
		s.cfg.Sink = obs.Multi(s.cfg.Sink, fr.Sink())
		s.mux.Handle("/debug/flightrec", fr.Handler())
	}
	s.handler = Middleware(s.mux, cfg.Log, s.mReqs, s.mPanics, s.cfg.Trace)
	if cfg.CheckpointDir != "" {
		s.mu.Lock()
		err := s.initDurabilityLocked()
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Close quiesces the server: the straggler-deadline timer stops, the WAL
// file handle closes, and protocol handlers begin answering 503 so retrying
// clients fail over (or reconnect to the next incarnation). Call it from
// test cleanup or alongside the HTTP listener shutdown; pair with
// CheckpointNow first for a graceful handoff.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.stopTimerLocked()
	if s.wal != nil {
		if err := s.wal.Close(); err != nil {
			s.logf("checkpoint: wal close: %v", err)
		}
		s.wal = nil
	}
}

// Global returns a clone of the current global model (safe at any time).
func (s *Server) Global() *nn.Sequential {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.global == nil {
		return nil
	}
	return s.global.Clone()
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad register body: %v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	if s.phase != PhaseRegistering {
		// Idempotent re-registration: a device retrying after its original
		// acknowledgement was lost must not be rejected — it is already part
		// of the fleet.
		if req.User >= 0 && req.User < s.cfg.ExpectedUsers && s.registered[req.User] {
			w.WriteHeader(http.StatusOK)
			return
		}
		httpError(w, http.StatusConflict, "registration closed")
		return
	}
	if req.User < 0 || req.User >= s.cfg.ExpectedUsers {
		httpError(w, http.StatusBadRequest, "user %d outside fleet of %d", req.User, s.cfg.ExpectedUsers)
		return
	}
	d := &device.Device{
		ID:              req.User,
		FMin:            req.FMin,
		FMax:            req.FMax,
		CyclesPerSample: device.DefaultCyclesPerSample,
		Kappa:           device.DefaultKappa,
		TxPower:         req.TxPower,
		ChannelGain:     req.ChannelGain,
		NumSamples:      req.NumSamples,
	}
	if err := d.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "invalid device: %v", err)
		return
	}
	s.devices[req.User] = d
	s.registered[req.User] = true
	if len(s.registered) == s.cfg.ExpectedUsers {
		if err := s.startTrainingLocked(); err != nil {
			httpError(w, http.StatusInternalServerError, "start training: %v", err)
			return
		}
	}
	w.WriteHeader(http.StatusOK)
}

// newPlanner builds the planner over the registered fleet. The server runs
// Algorithm 1 as the engine does, edge tier included, except that uploads
// carry no training loss: a planner that needs loss feedback (fl.Observer)
// would silently plan on none, so it is refused.
func (s *Server) newPlanner() (fl.Planner, error) {
	planner, err := s.cfg.NewPlanner(s.devices)
	if err != nil {
		return nil, err
	}
	if _, ok := planner.(fl.Observer); ok {
		return nil, fmt.Errorf("deploy: planner %q needs per-round loss feedback, which uploads do not carry", planner.Name())
	}
	return planner, nil
}

// startTrainingLocked builds the planner and plans round 0. Caller holds mu.
func (s *Server) startTrainingLocked() error {
	planner, err := s.newPlanner()
	if err != nil {
		return err
	}
	s.planner = planner
	s.global = s.cfg.Spec.Build(newSeededRand(s.cfg.Seed))
	s.phase = PhaseTraining
	s.round = 0
	if s.cfg.Sink != nil {
		s.cfg.Sink.OnEvent(obs.RunStartEvent{
			Scheme:    planner.Name(),
			Users:     s.cfg.ExpectedUsers,
			MaxRounds: s.cfg.Rounds,
			ModelBits: nn.ModelBits(s.global),
		})
	}
	return s.planRoundLocked()
}

// planRoundLocked asks the planner for the current round's cohort,
// serializes the broadcast payload, and arms the straggler deadline.
// Caller holds mu.
func (s *Server) planRoundLocked() error {
	sel, freqs := s.planner.PlanRound(s.round)
	if len(sel) == 0 {
		return fmt.Errorf("deploy: planner selected no users in round %d", s.round)
	}
	s.selOrder = sel
	s.selected = make(map[int]float64, len(sel))
	for i, q := range sel {
		s.selected[q] = freqs[i]
	}
	s.uploads = map[int][]float64{}
	s.payload = nn.ParamBytes(s.global)
	if s.cfg.Sink != nil {
		s.cfg.Sink.OnEvent(obs.RoundStartEvent{Round: s.round})
		s.cfg.Sink.OnEvent(obs.SelectionEvent{Round: s.round, Selected: sel, Freqs: freqs})
	}
	// Durable round boundary: the snapshot captures the post-PlanRound
	// planner state together with the planned cohort, so a restart never
	// re-runs PlanRound (which would double-apply the α decay).
	s.checkpointLocked(true)
	s.armDeadlineLocked()
	return nil
}

// armDeadlineLocked (re)starts the straggler timer for the current round.
// Caller holds mu.
func (s *Server) armDeadlineLocked() {
	if s.cfg.RoundDeadline <= 0 || s.closed {
		return
	}
	s.stopTimerLocked()
	round := s.round
	s.roundTimer = time.AfterFunc(s.cfg.RoundDeadline, func() { s.onDeadline(round) })
}

func (s *Server) stopTimerLocked() {
	if s.roundTimer != nil {
		s.roundTimer.Stop()
		s.roundTimer = nil
	}
}

// quorumLocked is the upload count required to close the current round
// early. Caller holds mu.
func (s *Server) quorumLocked() int {
	need := int(math.Ceil(s.cfg.Quorum * float64(len(s.selOrder))))
	if need < 1 {
		need = 1
	}
	return need
}

// onDeadline fires when the straggler deadline for `round` elapses: at or
// above quorum the round closes with a partial aggregation; below quorum the
// deadline re-arms and the server keeps waiting.
func (s *Server) onDeadline(round int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.phase != PhaseTraining || s.round != round {
		return
	}
	if len(s.uploads) >= s.quorumLocked() {
		s.aggregateLocked()
		return
	}
	s.armDeadlineLocked()
}

func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	user, err := strconv.Atoi(r.URL.Query().Get("user"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad user")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	resp := PollResponse{Phase: s.phase, Round: s.round}
	if s.phase == PhaseTraining {
		if f, ok := s.selected[user]; ok {
			// Only users that have not uploaded yet should act.
			if _, uploaded := s.uploads[user]; !uploaded {
				resp.Selected = true
				resp.FreqHz = f
			}
		}
	}
	writeJSON(w, resp)
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	round, err := strconv.Atoi(r.URL.Query().Get("round"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad round")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	if s.phase != PhaseTraining {
		httpError(w, http.StatusConflict, "not training")
		return
	}
	if round != s.round {
		httpError(w, http.StatusConflict, "round %d is over (current %d)", round, s.round)
		return
	}
	s.bytesDown += int64(len(s.payload))
	s.mBytesDown.Add(float64(len(s.payload)))
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(s.payload)
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	q := r.URL.Query()
	user, err1 := strconv.Atoi(q.Get("user"))
	round, err2 := strconv.Atoi(q.Get("round"))
	if err1 != nil || err2 != nil {
		httpError(w, http.StatusBadRequest, "bad user/round")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	if s.phase != PhaseTraining {
		httpError(w, http.StatusConflict, "not training")
		return
	}
	if round != s.round {
		httpError(w, http.StatusConflict, "stale round %d (current %d)", round, s.round)
		return
	}
	if _, ok := s.selected[user]; !ok {
		httpError(w, http.StatusForbidden, "user %d not selected in round %d", user, round)
		return
	}
	if _, dup := s.uploads[user]; dup {
		// Idempotent redelivery: the first copy was already folded in (or is
		// pending aggregation); acknowledge the retry exactly like the
		// original so at-least-once transports converge.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	// Decode the payload through a scratch model to validate its shape, then
	// screen the parameters: one NaN or Inf smuggled into FedAvg would poison
	// the global model for the whole fleet.
	scratch := s.global.Clone()
	if err := nn.LoadParamBytes(scratch, body); err != nil {
		code := http.StatusBadRequest // malformed framing
		if errors.Is(err, nn.ErrShapeMismatch) {
			code = http.StatusUnprocessableEntity // valid framing, wrong model
		}
		s.rejectUploadLocked(w, code, user, "bad payload: %v", err)
		return
	}
	flat := scratch.GetFlatParams()
	for i, v := range flat {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			s.rejectUploadLocked(w, http.StatusUnprocessableEntity, user, "non-finite parameter %d (%v)", i, v)
			return
		}
	}
	// Durably log the accepted upload BEFORE acknowledging it: a crash after
	// the WAL fsync replays this exact payload, so the client's retry
	// deduplicates instead of aggregating twice (at-most-once aggregation).
	if s.wal != nil {
		//helcfl:allow(lockheld) WAL-before-ack: the upload must be durable before the lock releases and the aggregation becomes visible, or a crash after the 200 double-counts the retry
		if err := s.wal.Append(checkpoint.Record{
			Type: checkpoint.RecordUpload, Round: round, User: user, Payload: body,
		}); err != nil {
			s.logf("checkpoint: wal append user %d round %d: %v", user, round, err)
			httpError(w, http.StatusInternalServerError, "durable log unavailable")
			return
		}
		s.mWALAppends.Inc()
	}
	s.uploads[user] = flat
	s.bytesUp += int64(len(body))
	s.mUploads.Inc()
	s.mBytesUp.Add(float64(len(body)))
	if len(s.uploads) == len(s.selected) {
		s.aggregateLocked()
	}
	w.WriteHeader(http.StatusNoContent)
}

// rejectUploadLocked answers an invalid upload with the error status and
// the rejection counter. It is no dropout: the user may retry, and a user
// still missing when the round closes is reported then. Caller holds mu.
func (s *Server) rejectUploadLocked(w http.ResponseWriter, code, user int, format string, args ...interface{}) {
	s.mRejected.Inc()
	s.logf("upload rejected: user=%d round=%d: %s", user, s.round, fmt.Sprintf(format, args...))
	httpError(w, code, format, args...)
}

// aggregateLocked runs FedAvg over the round's uploads through the
// planner's edge tier — walked in planner selection order so the
// floating-point reduction is bit-for-bit reproducible and matches the
// in-process engine — and advances the round. Selected users without an
// upload (possible only when the straggler deadline closed the round) are
// reported as dropouts. Caller holds mu.
func (s *Server) aggregateLocked() {
	s.stopTimerLocked()
	topo := fl.TopologyOf(s.planner)
	uploads := make([][]float64, 0, len(s.uploads))
	weights := make([]int, 0, len(s.uploads))
	edges := make([]int, 0, len(s.uploads))
	uploaded := make([]int, 0, len(s.uploads))
	var missing []int
	for _, user := range s.selOrder {
		flat, ok := s.uploads[user]
		if !ok {
			missing = append(missing, user)
			continue
		}
		uploads = append(uploads, flat)
		weights = append(weights, s.devices[user].NumSamples)
		edges = append(edges, topo.EdgeOf(user))
		uploaded = append(uploaded, user)
	}
	partial := len(missing) > 0
	avg := make([]float64, s.global.NumParams())
	var hier fl.HierScratch
	fl.FedAvgHierInto(avg, &hier, uploads, weights, edges, topo.NumEdges())
	s.global.SetFlatParams(avg)
	s.mAggs.Inc()
	if partial {
		s.mPartial.Inc()
		s.mDropouts.Add(float64(len(missing)))
	}
	closed := s.round
	if s.cfg.Sink != nil {
		for _, user := range missing {
			s.cfg.Sink.OnEvent(obs.DropoutEvent{Round: closed, User: user})
		}
		s.cfg.Sink.OnEvent(obs.AggregateEvent{Round: closed, Uploads: len(uploads)})
		s.cfg.Sink.OnEvent(obs.RoundEndEvent{Round: closed, Selected: s.selOrder, Failed: len(missing)})
	}
	if s.cfg.RoundHook != nil {
		s.cfg.RoundHook(RoundSummary{
			Round:    closed,
			Selected: append([]int(nil), s.selOrder...),
			Uploaded: uploaded,
			Missing:  missing,
			Partial:  partial,
			Global:   s.global.GetFlatParams(),
		})
	}
	s.round++
	s.mRound.Set(float64(s.round))
	if s.round >= s.cfg.Rounds {
		s.finishLocked()
		return
	}
	if err := s.planRoundLocked(); err != nil {
		// A planner failure mid-run is unrecoverable; finish gracefully.
		s.finishLocked()
	}
}

// finishLocked transitions to PhaseDone. Caller holds mu.
func (s *Server) finishLocked() {
	s.phase = PhaseDone
	s.selOrder = nil
	s.selected = nil
	s.uploads = nil
	s.stopTimerLocked()
	s.checkpointLocked(true)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, StatusResponse{
		Phase:      s.phase,
		Round:      s.round,
		Rounds:     s.cfg.Rounds,
		Registered: len(s.registered),
		Uploads:    len(s.uploads),
		BytesUp:    s.bytesUp,
		BytesDown:  s.bytesDown,
	})
}
