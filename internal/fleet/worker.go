package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"helcfl/internal/deploy"
	"helcfl/internal/grid"
	"helcfl/internal/obs/span"
	"helcfl/internal/retry"
)

// WorkerConfig configures one fleet worker process.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// Name identifies this worker in leases and logs.
	Name string
	// Resolve rebuilds the campaign grid locally from the coordinator's
	// PlanInfo (e.g. via the experiments registry). Required. The worker
	// verifies the rebuilt plan's fingerprint before leasing anything.
	Resolve func(PlanInfo) ([]grid.Cell, error)
	// Encode serializes a cell result for transport (e.g.
	// experiments.EncodeCellResult). Required.
	Encode func(any) ([]byte, error)
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries and BaseBackoff shape the shared retry.Policy used for
	// every coordinator request — the same jittered exponential backoff
	// the deploy client uses, so a worker rides out a coordinator restart.
	// Defaults: 5 retries, 100ms base.
	MaxRetries  int
	BaseBackoff time.Duration
	// RequestTimeout bounds each HTTP attempt; 0 disables.
	RequestTimeout time.Duration
	// Seed seeds the retry jitter and heartbeat phase, decorrelating a
	// fleet that shares one outage.
	Seed int64
	// Log and Trace attach observability; each may be nil.
	Log   deploy.Logf
	Trace *span.Recorder
}

// Worker leases cells from a coordinator, runs them locally on the
// deterministic plan it rebuilt itself, and reports results until the
// sweep is done. Safe for one goroutine to Run; Drain may be called from
// any goroutine (e.g. a SIGTERM handler).
type Worker struct {
	cfg    WorkerConfig
	policy retry.Policy
	hbRNG  *rand.Rand

	draining  atomic.Bool
	completed atomic.Int64
	fenced    atomic.Int64
}

// NewWorker validates the configuration and applies defaults.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("fleet: worker needs a coordinator URL")
	}
	if cfg.Resolve == nil || cfg.Encode == nil {
		return nil, fmt.Errorf("fleet: worker needs Resolve and Encode hooks")
	}
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 5
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	return &Worker{
		cfg: cfg,
		policy: retry.Policy{
			MaxRetries: cfg.MaxRetries,
			Base:       cfg.BaseBackoff,
			Jitter:     rand.New(rand.NewSource(cfg.Seed)),
		},
		hbRNG: rand.New(rand.NewSource(cfg.Seed + 1)),
	}, nil
}

// Drain makes the worker finish its in-flight cell (if any), skip further
// leases, and return from Run cleanly — the SIGTERM handshake.
func (w *Worker) Drain() { w.draining.Store(true) }

// Completed reports cells this worker completed (accepted merges).
func (w *Worker) Completed() int { return int(w.completed.Load()) }

// Fenced reports completions this worker lost to fencing (its lease had
// expired and the cell was re-granted, or the merge already happened).
func (w *Worker) Fenced() int { return int(w.fenced.Load()) }

// Run fetches the plan identity, rebuilds the grid locally, verifies the
// fingerprint, then leases and runs cells until the sweep is done, ctx is
// canceled, or Drain is called.
func (w *Worker) Run(ctx context.Context) error {
	var info PlanInfo
	status, err := w.exchange(ctx, w.policy, http.MethodGet, PathPlan, nil, &info, span.Ref{})
	if err != nil {
		return fmt.Errorf("fleet: fetch plan: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("fleet: fetch plan: unexpected status %d", status)
	}
	cells, err := w.cfg.Resolve(info)
	if err != nil {
		return fmt.Errorf("fleet: rebuild plan: %w", err)
	}
	if len(cells) != info.Cells || grid.Fingerprint(cells) != info.Fingerprint {
		return fmt.Errorf("fleet: rebuilt plan disagrees with coordinator (%d cells fingerprint %x, coordinator has %d cells fingerprint %x) — version or flag skew",
			len(cells), grid.Fingerprint(cells), info.Cells, info.Fingerprint)
	}
	w.logf("fleet: %s joined %s: %s/%s seed %d, %d cells", w.cfg.Name, w.cfg.Coordinator, info.Experiment, info.Preset, info.Seed, info.Cells)

	waitAttempt := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.draining.Load() {
			w.logf("fleet: %s draining after %d cells", w.cfg.Name, w.Completed())
			return nil
		}
		var lease LeaseResponse
		status, err := w.exchange(ctx, w.policy, http.MethodPost, PathLease, LeaseRequest{Worker: w.cfg.Name}, &lease, span.Ref{})
		if err != nil {
			return fmt.Errorf("fleet: lease: %w", err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("fleet: lease: unexpected status %d", status)
		}
		switch lease.State {
		case StateDone:
			w.logf("fleet: %s done after %d cells (%d fenced)", w.cfg.Name, w.Completed(), w.Fenced())
			return nil
		case StateWait:
			waitAttempt++
			if err := w.policy.Sleep(ctx, waitAttempt); err != nil {
				return err
			}
		case StateGranted:
			waitAttempt = 0
			if lease.Index < 0 || lease.Index >= len(cells) {
				return fmt.Errorf("fleet: leased cell %d outside plan of %d", lease.Index, len(cells))
			}
			if got := cells[lease.Index].Key(); got != lease.Key {
				return fmt.Errorf("fleet: leased cell %d key mismatch: coordinator %q, local %q", lease.Index, lease.Key, got)
			}
			if err := w.runCell(ctx, cells[lease.Index], lease); err != nil {
				return err
			}
		default:
			return fmt.Errorf("fleet: unknown lease state %q", lease.State)
		}
	}
}

// runCell executes one leased cell under heartbeats and reports it.
func (w *Worker) runCell(ctx context.Context, cell grid.Cell, lease LeaseResponse) error {
	sp := w.cfg.Trace.Start(span.Ref{}, "fleet.cell")
	sp.SetStr("key", lease.Key)
	sp.SetInt("index", int64(lease.Index))
	sp.SetInt("token", int64(lease.Token))
	defer sp.End()

	// The cell runs under its own context: heartbeats cancel it if the
	// coordinator fences this lease, so boundary-checking cells stop
	// early instead of wasting a dead lease.
	cellCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if w.cfg.Trace != nil {
		cellCtx = span.WithParent(cellCtx, w.cfg.Trace, sp.Ref())
	}
	var hbWG sync.WaitGroup
	var fenced atomic.Bool
	ttl := time.Duration(lease.TTLMillis) * time.Millisecond
	if ttl > 0 {
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			w.heartbeat(cellCtx, func() { fenced.Store(true); cancel() }, lease, ttl, sp.Ref())
		}()
	}

	v, runErr := cell.Run(cellCtx, cell.RNG())
	cancel()
	hbWG.Wait()

	if err := ctx.Err(); err != nil {
		return err // hard shutdown mid-cell; the lease will expire and reassign
	}
	if fenced.Load() && runErr != nil {
		// Fenced mid-run and the cell aborted on the canceled context:
		// nothing to report, the new lease holder owns the cell.
		w.fenced.Add(1)
		sp.SetStr("outcome", "fenced")
		return nil
	}
	req := CompleteRequest{Worker: w.cfg.Name, Index: lease.Index, Token: lease.Token}
	if runErr == nil {
		enc, err := w.cfg.Encode(v)
		if err != nil {
			runErr = fmt.Errorf("encode result: %w", err)
		}
		req.Result = enc
	}
	if runErr != nil {
		// A deterministic cell failure — the cell's own or its result's
		// encoding: report it so the coordinator can surface it like
		// grid.Runner would, instead of re-leasing a cell that will fail
		// everywhere forever.
		req.Result, req.Error = nil, runErr.Error()
	}
	status, err := w.exchange(ctx, w.policy, http.MethodPost, PathComplete, req, nil, sp.Ref())
	switch {
	case err != nil:
		return fmt.Errorf("fleet: complete cell %d: %w", lease.Index, err)
	case status == http.StatusNoContent:
		w.completed.Add(1)
		sp.SetStr("outcome", "completed")
	case status == http.StatusConflict:
		// Fenced or duplicate: the cell is accounted for without us.
		w.fenced.Add(1)
		sp.SetStr("outcome", "fenced")
		w.logf("fleet: %s completion of cell %d fenced", w.cfg.Name, lease.Index)
	default:
		return fmt.Errorf("fleet: complete cell %d: unexpected status %d", lease.Index, status)
	}
	return nil
}

// heartbeat extends the lease every TTL/3 (phase-jittered from the worker
// seed so a fleet's beats spread out) until the cell context ends. A 409
// means the lease was fenced: fence() marks and cancels the cell.
func (w *Worker) heartbeat(ctx context.Context, fence func(), lease LeaseResponse, ttl time.Duration, parent span.Ref) {
	interval := ttl / 3
	if interval <= 0 {
		return
	}
	// Seeded phase offset: workers granted leases at the same instant
	// don't all beat at the same instant.
	phase := time.Duration(w.hbRNG.Int63n(int64(interval)/2 + 1))
	timer := time.NewTimer(interval + phase)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		hb := HeartbeatRequest{Worker: w.cfg.Name, Index: lease.Index, Token: lease.Token}
		// Single attempt per beat: a missed beat is recoverable (the next
		// one lands well within the TTL), so no retry budget is spent.
		status, err := w.exchange(ctx, retry.Policy{Base: w.cfg.BaseBackoff}, http.MethodPost, PathHeartbeat, hb, nil, parent)
		if err == nil && status == http.StatusConflict {
			w.logf("fleet: %s lease on cell %d fenced; abandoning", w.cfg.Name, lease.Index)
			fence()
			return
		}
		timer.Reset(interval)
	}
}

// exchange sends one JSON request to path under pol — body, when non-nil,
// is marshalled as the payload — and decodes a 200 response into out (when
// non-nil). Transport failures and 5xx are transient; any other status is
// returned to the caller undisturbed (409 carries fencing semantics).
func (w *Worker) exchange(ctx context.Context, pol retry.Policy, method, path string, body, out any, parent span.Ref) (int, error) {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return 0, err
		}
	}
	status := 0
	err := pol.Do(ctx, func(ctx context.Context, attempt int) error {
		reqCtx, cancel := ctx, context.CancelFunc(func() {})
		if w.cfg.RequestTimeout > 0 {
			reqCtx, cancel = context.WithTimeout(ctx, w.cfg.RequestTimeout)
		}
		defer cancel()
		req, err := http.NewRequestWithContext(reqCtx, method, w.cfg.Coordinator+path, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if w.cfg.Trace != nil {
			// Stitches this request to the worker's spans across processes.
			req.Header.Set(deploy.TraceHeader, deploy.FormatTraceHeader(parent))
		}
		var respBody []byte
		resp, err := w.cfg.HTTPClient.Do(req)
		if err == nil {
			respBody, err = io.ReadAll(resp.Body)
			_ = resp.Body.Close()
		}
		if err != nil {
			// Prefer the caller's cancellation over a retry.
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return retry.Transient(err)
		}
		if resp.StatusCode >= 500 {
			return retry.Transient(fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(respBody)))
		}
		status = resp.StatusCode
		if status == http.StatusOK && out != nil {
			return json.Unmarshal(respBody, out)
		}
		return nil
	})
	return status, err
}

func (w *Worker) logf(format string, args ...interface{}) {
	if w.cfg.Log != nil {
		w.cfg.Log(format, args...)
	}
}
