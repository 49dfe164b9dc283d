package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"helcfl/internal/checkpoint"
	"helcfl/internal/deploy"
	"helcfl/internal/grid"
	"helcfl/internal/obs"
	"helcfl/internal/obs/span"
)

// DefaultLeaseTTL is the lease duration when CoordinatorConfig.LeaseTTL is
// zero. Workers heartbeat at a third of the TTL, so a lease survives two
// missed heartbeats before the cell is reassigned.
const DefaultLeaseTTL = 15 * time.Second

// CoordinatorConfig configures a campaign coordinator.
type CoordinatorConfig struct {
	// Info is the plan identity workers rebuild the grid from. Cells and
	// Fingerprint are filled in by NewCoordinator.
	Info PlanInfo
	// Cells is the campaign grid, validated like grid.Runner validates it.
	Cells []grid.Cell
	// Decode reverses the workers' result encoding (e.g.
	// experiments.DecodeCellResult). Required.
	Decode func([]byte) (any, error)
	// JournalPath, when set, journals grants and completions through the
	// checkpoint WAL so a coordinator crash resumes mid-sweep. Empty runs
	// in memory only.
	JournalPath string
	// Resume continues an existing journal. Without it, a journal that
	// already holds records is refused — restarting a sweep from scratch
	// over a half-finished journal must be an explicit decision.
	Resume bool
	// LeaseTTL bounds how long a silent worker holds a cell; defaults to
	// DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Log, Metrics, and Trace attach observability; each may be nil.
	Log     deploy.Logf
	Metrics *obs.Registry
	Trace   *span.Recorder
}

// liveLease is one granted, unexpired, incomplete lease.
type liveLease struct {
	deadline time.Time
	worker   string
}

// cellState is the coordinator's per-cell bookkeeping. token is the latest
// fencing token granted for the cell (0 = never granted); completions and
// heartbeats are accepted only under it, even if the lease expired — work
// is never discarded, only fenced once the cell is granted again.
type cellState struct {
	token    uint64
	attempts int
	done     bool
	err      string
}

// Coordinator leases grid cells to workers and merges their results by
// index. All state transitions happen under one mutex and are journaled
// before they are acknowledged, so the merge survives both worker and
// coordinator kills with at-most-once semantics.
type Coordinator struct {
	cfg CoordinatorConfig
	ttl time.Duration
	m   *coordMetrics

	mu        sync.Mutex
	cells     []cellState
	live      map[int]liveLease
	results   []any
	nextToken uint64
	remaining int
	journal   *checkpoint.WAL
	doneCh    chan struct{}
}

// NewCoordinator validates the grid, replays the journal when resuming,
// and reports recovery statistics through the registry.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if err := grid.Validate(cfg.Cells); err != nil {
		return nil, err
	}
	if cfg.Decode == nil {
		return nil, fmt.Errorf("fleet: coordinator needs a Decode hook")
	}
	cfg.Info.Cells = len(cfg.Cells)
	cfg.Info.Fingerprint = grid.Fingerprint(cfg.Cells)
	c := &Coordinator{
		cfg:       cfg,
		ttl:       cfg.LeaseTTL,
		m:         newCoordMetrics(cfg.Metrics),
		cells:     make([]cellState, len(cfg.Cells)),
		live:      map[int]liveLease{},
		results:   make([]any, len(cfg.Cells)),
		nextToken: 1,
		remaining: len(cfg.Cells),
		doneCh:    make(chan struct{}),
	}
	if c.ttl <= 0 {
		c.ttl = DefaultLeaseTTL
	}
	if cfg.JournalPath != "" {
		if err := c.openJournal(); err != nil {
			return nil, err
		}
	}
	if c.m != nil {
		c.m.cells.Set(float64(len(cfg.Cells)))
		c.m.done.Set(float64(len(cfg.Cells) - c.remaining))
		c.m.leased.Set(float64(len(c.live)))
	}
	if c.remaining == 0 {
		close(c.doneCh)
	}
	return c, nil
}

// openJournal opens (and when resuming, replays) the WAL at JournalPath.
func (c *Coordinator) openJournal() error {
	start := time.Now()
	wal, recs, err := checkpoint.OpenWAL(c.cfg.JournalPath)
	if err != nil {
		return err
	}
	if len(recs) > 0 && !c.cfg.Resume {
		_ = wal.Close()
		return fmt.Errorf("fleet: journal %s already holds %d records; resume it explicitly or remove it", c.cfg.JournalPath, len(recs))
	}
	if len(recs) == 0 {
		if err := wal.Append(checkpoint.Record{Type: RecordFleetPlan,
			Payload: planPayload(c.cfg.Info.Fingerprint, len(c.cfg.Cells))}); err != nil {
			_ = wal.Close()
			return err
		}
		c.journal = wal
		return nil
	}
	if err := c.replay(recs); err != nil {
		_ = wal.Close()
		return err
	}
	c.journal = wal
	elapsed := time.Since(start).Seconds()
	restoredLeases := len(c.live)
	if c.m != nil {
		c.m.recoverySec.Set(elapsed)
		c.m.recoveredDone.Set(float64(len(c.cfg.Cells) - c.remaining))
		c.m.recoveredLeases.Set(float64(restoredLeases))
	}
	c.logf("fleet: recovered %d/%d done cells and %d live leases from %s in %.3fs",
		len(c.cfg.Cells)-c.remaining, len(c.cfg.Cells), restoredLeases, c.cfg.JournalPath, elapsed)
	return nil
}

// replay folds journal records into coordinator state: done cells get
// their merged results back, the token counter resumes past every token
// ever granted (tokens never regress), and granted-but-incomplete leases
// come back live under a fresh TTL so workers that survived the crash can
// still heartbeat or complete under their old token.
func (c *Coordinator) replay(recs []checkpoint.Record) error {
	if recs[0].Type != RecordFleetPlan {
		return fmt.Errorf("fleet: journal does not start with a plan record (type %d)", recs[0].Type)
	}
	fp, n, err := parsePlanPayload(recs[0].Payload)
	if err != nil {
		return err
	}
	if fp != c.cfg.Info.Fingerprint || n != len(c.cfg.Cells) {
		return fmt.Errorf("fleet: journal %s belongs to a different plan (fingerprint %x over %d cells, this plan is %x over %d)",
			c.cfg.JournalPath, fp, n, c.cfg.Info.Fingerprint, len(c.cfg.Cells))
	}
	for _, rec := range recs[1:] {
		if rec.Round < 0 || rec.Round >= len(c.cfg.Cells) {
			return fmt.Errorf("fleet: journal cell index %d out of range", rec.Round)
		}
		st := &c.cells[rec.Round]
		token := uint64(rec.User)
		if token >= c.nextToken {
			c.nextToken = token + 1
		}
		switch rec.Type {
		case RecordFleetGrant:
			st.token = token
			st.attempts++
		case RecordFleetComplete:
			raw, cellErr, err := parseCompletePayload(rec.Payload)
			if err != nil {
				return err
			}
			if st.done {
				return fmt.Errorf("fleet: journal completes cell %d twice", rec.Round)
			}
			if cellErr == "" {
				v, err := c.cfg.Decode(raw)
				if err != nil {
					return fmt.Errorf("fleet: journal cell %d result: %w", rec.Round, err)
				}
				c.results[rec.Round] = v
			}
			st.err = cellErr
			st.done = true
			c.remaining--
		case RecordFleetPlan:
			return fmt.Errorf("fleet: journal holds a second plan record")
		default:
			return fmt.Errorf("fleet: unknown journal record type %d", rec.Type)
		}
	}
	deadline := time.Now().Add(c.ttl)
	for i := range c.cells {
		if st := &c.cells[i]; st.token != 0 && !st.done {
			c.live[i] = liveLease{deadline: deadline, worker: "recovered"}
		}
	}
	return nil
}

// Handler serves the fleet protocol, wrapped in the deploy middleware
// (request logging, per-path counters, http.server spans stitched to the
// workers' Helcfl-Trace headers, panic recovery).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathPlan, c.handlePlan)
	mux.HandleFunc(PathLease, c.handleLease)
	mux.HandleFunc(PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc(PathComplete, c.handleComplete)
	var reqs *obs.CounterVec
	var panics *obs.Counter
	if c.cfg.Metrics != nil {
		reqs = c.cfg.Metrics.CounterVec("helcfl_fleet_http_requests_total", "Coordinator requests by path.", "path")
		panics = c.cfg.Metrics.Counter("helcfl_fleet_http_panics_total", "Coordinator handler panics recovered.")
	}
	return deploy.Middleware(mux, c.cfg.Log, reqs, panics, c.cfg.Trace)
}

// Wait blocks until the sweep completes or ctx is canceled, then returns
// the merged fixed-index results — the same slice shape, in the same
// order, as grid.Runner.Run over the same cells. Cells that failed
// deterministically on a worker surface as grid.Errors, with the results
// of successful cells still populated (mirroring the Runner's contract).
func (c *Coordinator) Wait(ctx context.Context) ([]any, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.doneCh:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	results := make([]any, len(c.results))
	copy(results, c.results)
	var errs grid.Errors
	for i := range c.cells {
		if e := c.cells[i].err; e != "" {
			errs = append(errs, &grid.CellError{Index: i, Key: c.cfg.Cells[i].Key(), Err: fmt.Errorf("%s", e)})
		}
	}
	if len(errs) > 0 {
		return results, errs
	}
	return results, nil
}

// Remaining reports cells not yet completed.
func (c *Coordinator) Remaining() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.remaining
}

// Close releases the journal. The coordinator must not serve afterwards.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal == nil {
		return nil
	}
	err := c.journal.Close()
	c.journal = nil
	return err
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.cfg.Log != nil {
		c.cfg.Log(format, args...)
	}
}

// sweepExpiredLocked retires leases whose deadline passed, making their
// cells grantable again. The cell's fencing token is NOT advanced here: an
// expired-but-alive worker can still complete (or revive via heartbeat)
// until the cell is actually re-granted.
func (c *Coordinator) sweepExpiredLocked(now time.Time) {
	for idx, l := range c.live {
		if now.After(l.deadline) {
			delete(c.live, idx)
			if c.m != nil {
				c.m.expired.Inc()
			}
			c.logf("fleet: lease on cell %d (worker %s, token %d) expired", idx, l.worker, c.cells[idx].token)
		}
	}
}

func (c *Coordinator) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, c.cfg.Info)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	_, sp := span.StartCtx(r.Context(), "fleet.lease")
	defer sp.End()
	sp.SetStr("worker", req.Worker)

	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepExpiredLocked(now)
	if c.m != nil {
		c.m.leased.Set(float64(len(c.live)))
	}
	if c.remaining == 0 {
		sp.SetStr("state", StateDone)
		writeJSON(w, http.StatusOK, LeaseResponse{State: StateDone})
		return
	}
	idx := -1
	for i := range c.cells {
		if _, leased := c.live[i]; !c.cells[i].done && !leased {
			idx = i
			break
		}
	}
	if idx < 0 {
		sp.SetStr("state", StateWait)
		writeJSON(w, http.StatusOK, LeaseResponse{State: StateWait, Remaining: c.remaining})
		return
	}
	st := &c.cells[idx]
	token := c.nextToken
	// The grant hits the journal before the response: a coordinator that
	// crashes after answering has durably burned this token, so a restart
	// can never grant it to someone else.
	if c.journal != nil {
		//helcfl:allow(lockheld) the grant must be journaled before the lease escapes the lock; fsyncing after release would let a crashed coordinator re-grant a burned fencing token
		if err := c.journal.Append(checkpoint.Record{Type: RecordFleetGrant, Round: idx, User: int(token)}); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	c.nextToken++
	reassigned := st.token != 0
	st.token = token
	st.attempts++
	c.live[idx] = liveLease{deadline: now.Add(c.ttl), worker: req.Worker}
	if c.m != nil {
		c.m.granted.Inc()
		if reassigned {
			c.m.reassigned.Inc()
		}
		c.m.leased.Set(float64(len(c.live)))
	}
	key := c.cfg.Cells[idx].Key()
	sp.SetStr("state", StateGranted)
	sp.SetStr("key", key)
	sp.SetInt("index", int64(idx))
	sp.SetInt("token", int64(token))
	writeJSON(w, http.StatusOK, LeaseResponse{
		State: StateGranted, Index: idx, Key: key, Token: token,
		TTLMillis: c.ttl.Milliseconds(), Remaining: c.remaining,
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Index < 0 || req.Index >= len(c.cells) {
		http.Error(w, "cell index out of range", http.StatusBadRequest)
		return
	}
	st := &c.cells[req.Index]
	if st.done || req.Token != st.token {
		// The cell moved on without this worker; 409 tells it to abandon.
		http.Error(w, "lease fenced", http.StatusConflict)
		return
	}
	// Accepting the heartbeat revives an expired-but-not-regranted lease:
	// the worker is demonstrably alive, so it keeps the cell.
	c.live[req.Index] = liveLease{deadline: time.Now().Add(c.ttl), worker: req.Worker}
	if c.m != nil {
		c.m.leased.Set(float64(len(c.live)))
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !readJSON(w, r, &req) {
		return
	}
	_, sp := span.StartCtx(r.Context(), "fleet.merge")
	defer sp.End()
	sp.SetStr("worker", req.Worker)
	sp.SetInt("index", int64(req.Index))
	sp.SetInt("token", int64(req.Token))

	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Index < 0 || req.Index >= len(c.cells) {
		http.Error(w, "cell index out of range", http.StatusBadRequest)
		return
	}
	st := &c.cells[req.Index]
	key := c.cfg.Cells[req.Index].Key()
	sp.SetStr("key", key)
	switch {
	case st.done:
		// At-most-once: the cell already merged (possibly this very
		// worker's earlier attempt whose 204 was lost in transit).
		if c.m != nil {
			c.m.dupRejected.Inc()
		}
		sp.SetStr("rejected", "duplicate")
		c.logf("fleet: rejected duplicate completion of cell %d (%s) from %s", req.Index, key, req.Worker)
		http.Error(w, "cell already completed", http.StatusConflict)
		return
	case req.Token != st.token:
		// Fenced: the cell was re-granted under a newer token after this
		// worker's lease expired (it was presumed dead). Its result is
		// discarded — the newer holder's will merge.
		if c.m != nil {
			c.m.staleRejected.Inc()
		}
		sp.SetStr("rejected", "stale")
		c.logf("fleet: rejected stale completion of cell %d (%s) from %s (token %d, current %d)",
			req.Index, key, req.Worker, req.Token, st.token)
		http.Error(w, "lease fenced", http.StatusConflict)
		return
	}
	var v any
	if req.Error == "" {
		var err error
		if v, err = c.cfg.Decode(req.Result); err != nil {
			http.Error(w, fmt.Sprintf("undecodable result: %v", err), http.StatusBadRequest)
			return
		}
	}
	// Fsync the completion before the 204: an acknowledged cell is done
	// forever, across any number of coordinator restarts.
	if c.journal != nil {
		rec := checkpoint.Record{Type: RecordFleetComplete, Round: req.Index, User: int(req.Token),
			Payload: completePayload(req.Result, req.Error)}
		//helcfl:allow(lockheld) the completion must be durable inside the same lock hold that marks the cell done, or a crash after the 204 forgets an acknowledged result
		if err := c.journal.Append(rec); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	st.done = true
	st.err = req.Error
	c.results[req.Index] = v
	c.remaining--
	delete(c.live, req.Index)
	if c.m != nil {
		c.m.completed.Inc()
		c.m.attempts.Observe(float64(st.attempts))
		c.m.done.Set(float64(len(c.cells) - c.remaining))
		c.m.leased.Set(float64(len(c.live)))
	}
	c.logf("fleet: cell %d (%s) completed by %s, %d remaining", req.Index, key, req.Worker, c.remaining)
	if c.remaining == 0 {
		close(c.doneCh)
	}
	w.WriteHeader(http.StatusNoContent)
}

// readJSON decodes a POST body, answering 4xx on misuse.
func readJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// writeJSON answers with a JSON body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
