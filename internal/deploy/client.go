package deploy

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"helcfl/internal/dataset"
	"helcfl/internal/fl"
	"helcfl/internal/nn"
	"helcfl/internal/obs/span"
	"helcfl/internal/retry"
	"helcfl/internal/tensor"
)

// newSeededRand is a tiny helper shared with the server.
func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// ErrUnavailable reports that the server could not be reached (transport
// error, per-request timeout, or persistent 5xx) even after the configured
// retries. Callers distinguish it from protocol errors with errors.Is.
var ErrUnavailable = errors.New("deploy: server unavailable")

// ClientConfig configures one device client.
type ClientConfig struct {
	// BaseURL points at the FLCC server.
	BaseURL string
	// Info is the resource report sent at registration.
	Info RegisterRequest
	// Data is the local dataset D_q.
	Data *dataset.Dataset
	// Spec matches the server's model architecture.
	Spec nn.ModelSpec
	// LR and LocalSteps parameterize the local GD update (Eq. 3).
	LR         float64
	LocalSteps int
	// PollInterval is the wait between polls (keep small in tests).
	PollInterval time.Duration
	// MaxRetries is how many extra attempts each request gets after a
	// transient failure (transport error, timeout, or 5xx). 0 disables
	// retries: the first failure is final, matching the old behaviour.
	MaxRetries int
	// BaseBackoff is the delay before the first retry; it doubles per retry
	// (capped at 2s) with deterministic per-client jitter so a fleet
	// retrying the same outage does not stampede in lockstep. Defaults to
	// 10ms when MaxRetries > 0.
	BaseBackoff time.Duration
	// RequestTimeout bounds each individual HTTP attempt; a timed-out
	// attempt is retried like a transport error. 0 means no per-attempt
	// timeout.
	RequestTimeout time.Duration
	// Reconnects is how many server outages the client survives: when a
	// request exhausts its retry budget (ErrUnavailable — e.g. the FLCC
	// crashed and is restarting from checkpoint), the client re-registers
	// and resumes polling instead of giving up, up to this many times. The
	// server's idempotent re-registration and upload dedup make the rejoin
	// safe at any point in a round. 0 keeps the old fail-fast behaviour.
	Reconnects int
	// HTTPClient defaults to http.DefaultClient. Tests swap in a
	// chaos-transport client here.
	HTTPClient *http.Client
	// Trace, when non-nil, records one "http.client" span per HTTP attempt
	// and stamps every request with the Helcfl-Trace header, so the
	// server's spans stitch into this client's trace.
	Trace *span.Recorder
}

// Client is a polling FL device.
type Client struct {
	cfg   ClientConfig
	model *nn.Sequential
	loss  *nn.SoftmaxCrossEntropy
	x     *tensor.Tensor // Data viewed the way the model consumes it
	rng   *rand.Rand     // backoff jitter; seeded per user for reproducible runs
	// RoundsTrained counts local updates whose upload was acknowledged.
	RoundsTrained int
	// Reconnections counts recoveries from a server outage (see
	// ClientConfig.Reconnects).
	Reconnections int
}

// NewClient validates the configuration.
func NewClient(cfg ClientConfig) (*Client, error) {
	switch {
	case cfg.BaseURL == "":
		return nil, fmt.Errorf("deploy: no server URL")
	case cfg.Data == nil || cfg.Data.N() == 0:
		return nil, fmt.Errorf("deploy: client %d has no data", cfg.Info.User)
	case cfg.LR <= 0 || cfg.LocalSteps <= 0:
		return nil, fmt.Errorf("deploy: bad training parameters")
	case cfg.MaxRetries < 0:
		return nil, fmt.Errorf("deploy: negative retry budget %d", cfg.MaxRetries)
	case cfg.Reconnects < 0:
		return nil, fmt.Errorf("deploy: negative reconnect budget %d", cfg.Reconnects)
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 5 * time.Millisecond
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 10 * time.Millisecond
	}
	x := cfg.Data.X
	if cfg.Spec.FlattensInput() {
		x = cfg.Data.FlatX()
	}
	return &Client{
		cfg:   cfg,
		model: cfg.Spec.Build(newSeededRand(int64(cfg.Info.User) + 1)),
		loss:  nn.NewSoftmaxCrossEntropy(),
		x:     x,
		rng:   newSeededRand(int64(cfg.Info.User)*7919 + 17),
	}, nil
}

// Run registers and participates until the server reports PhaseDone.
func (c *Client) Run() error { return c.RunContext(context.Background()) }

// RunContext is Run bounded by a context: cancellation stops the client
// cleanly between (and inside) requests with ctx.Err(). When the server
// becomes unreachable the client re-registers and resumes, up to
// ClientConfig.Reconnects times; each successful request resets nothing —
// the budget bounds distinct outages survived over the client's lifetime.
func (c *Client) RunContext(ctx context.Context) error {
	left := c.cfg.Reconnects
	for {
		err := c.session(ctx)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrUnavailable) || left <= 0 || ctx.Err() != nil {
			return err
		}
		left--
		c.Reconnections++
		// Give the FLCC time to come back before re-registering: a restart
		// takes longer than a request, and a tight loop would burn the whole
		// reconnect budget inside one outage window.
		if err := c.backoff(ctx, c.Reconnections); err != nil {
			return err
		}
	}
}

// session is one connected stint: register (idempotent on the server, so a
// rejoin mid-campaign is acknowledged rather than rejected) and participate
// until done or until the server becomes unreachable.
func (c *Client) session(ctx context.Context) error {
	if err := c.register(ctx); err != nil {
		return err
	}
	for {
		poll, err := c.poll(ctx)
		if err != nil {
			return err
		}
		switch poll.Phase {
		case PhaseDone:
			return nil
		case PhaseTraining:
			if poll.Selected {
				if err := c.trainRound(ctx, poll.Round); err != nil {
					// Conflicts are benign races (the round advanced while
					// we trained); everything else is fatal.
					if !isConflict(err) {
						return err
					}
				}
				continue // poll again immediately
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(c.cfg.PollInterval):
		}
	}
}

// conflictError marks HTTP 409/403 responses.
type conflictError struct{ msg string }

func (e conflictError) Error() string { return e.msg }

func isConflict(err error) bool {
	_, ok := err.(conflictError)
	return ok
}

// httpResult is one fully-read response.
type httpResult struct {
	status int
	body   []byte
}

// retryPolicy is the client's shared backoff schedule (see internal/retry):
// BaseBackoff doubling per attempt, capped at 2s, upper half jittered by the
// client's seeded RNG.
func (c *Client) retryPolicy() retry.Policy {
	return retry.Policy{MaxRetries: c.cfg.MaxRetries, Base: c.cfg.BaseBackoff, Jitter: c.rng}
}

// do issues the request built by build, retrying transient failures
// (transport errors, per-attempt timeouts, 5xx) up to MaxRetries times with
// the shared retry.Policy jittered exponential backoff. build is called per
// attempt — so request bodies are fresh — with the attempt's own context
// (the caller's ctx, bounded by RequestTimeout when set), which it must
// attach via http.NewRequestWithContext. Context cancellation aborts
// immediately with ctx.Err(); exhausting the retry budget returns an error
// wrapping ErrUnavailable.
func (c *Client) do(ctx context.Context, what string, build func(ctx context.Context) (*http.Request, error)) (*httpResult, error) {
	var out *httpResult
	err := c.retryPolicy().Do(ctx, func(ctx context.Context, attempt int) error {
		attemptCtx := ctx
		cancel := context.CancelFunc(func() {})
		if c.cfg.RequestTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, c.cfg.RequestTimeout)
		}
		req, err := build(attemptCtx)
		if err != nil {
			cancel()
			return err
		}
		// One span per attempt: retries are separate requests on the wire
		// and should be separately attributed. The header carries this
		// span's ref so the server's handler span becomes its child.
		sp := c.cfg.Trace.Start(span.Ref{}, "http.client")
		sp.SetStr("what", what)
		sp.SetInt("attempt", int64(attempt))
		if c.cfg.Trace != nil {
			req.Header.Set(TraceHeader, FormatTraceHeader(sp.Ref()))
		}
		resp, err := c.cfg.HTTPClient.Do(req)
		if err != nil {
			sp.SetStr("error", "transport")
			sp.End()
			cancel()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return retry.Transient(err)
		}
		body, readErr := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		cancel()
		if readErr != nil {
			sp.SetStr("error", "read")
			sp.End()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return retry.Transient(readErr)
		}
		sp.SetInt("status", int64(resp.StatusCode))
		sp.End()
		if resp.StatusCode >= 500 {
			return retry.Transient(fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body)))
		}
		out = &httpResult{status: resp.StatusCode, body: body}
		return nil
	})
	if err != nil {
		var ex *retry.ExhaustedError
		if errors.As(err, &ex) {
			return nil, fmt.Errorf("deploy: user %d: %s failed after %d attempt(s): %w: %v",
				c.cfg.Info.User, what, ex.Attempts, ErrUnavailable, ex.Last)
		}
		return nil, err
	}
	return out, nil
}

// backoff sleeps before retry `attempt` (1-based) on the client's shared
// schedule; the Reconnects loop uses it to give a restarting FLCC time to
// come back. Returns early with ctx.Err() on cancellation.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	return c.retryPolicy().Sleep(ctx, attempt)
}

func (c *Client) register(ctx context.Context) error {
	payload, err := json.Marshal(c.cfg.Info)
	if err != nil {
		return err
	}
	res, err := c.do(ctx, "register", func(ctx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+"/register", bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return err
	}
	if res.status != http.StatusOK {
		return fmt.Errorf("deploy: register failed: status %d: %s", res.status, res.body)
	}
	return nil
}

func (c *Client) poll(ctx context.Context) (*PollResponse, error) {
	url := fmt.Sprintf("%s/poll?user=%d", c.cfg.BaseURL, c.cfg.Info.User)
	res, err := c.do(ctx, "poll", func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	})
	if err != nil {
		return nil, err
	}
	if res.status != http.StatusOK {
		return nil, fmt.Errorf("deploy: poll failed: status %d", res.status)
	}
	var out PollResponse
	if err := json.Unmarshal(res.body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// trainRound downloads the round's global model, runs the local update,
// and uploads the result.
func (c *Client) trainRound(ctx context.Context, round int) error {
	modelURL := fmt.Sprintf("%s/model?round=%d", c.cfg.BaseURL, round)
	res, err := c.do(ctx, "model fetch", func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, modelURL, nil)
	})
	if err != nil {
		return err
	}
	switch {
	case res.status == http.StatusConflict:
		return conflictError{"stale model fetch"}
	case res.status != http.StatusOK:
		return fmt.Errorf("deploy: model fetch failed: status %d", res.status)
	}
	if err := nn.LoadParamBytes(c.model, res.body); err != nil {
		return err
	}

	// Local update, Eq. (3), from the parameters just loaded off the wire —
	// the same loop the simulated engine trains with.
	fl.LocalUpdate(c.model, c.loss, c.x, c.cfg.Data.Labels, nil, c.cfg.LR, c.cfg.LocalSteps, nil)

	payload := nn.ParamBytes(c.model)
	uploadURL := fmt.Sprintf("%s/upload?user=%d&round=%d", c.cfg.BaseURL, c.cfg.Info.User, round)
	up, err := c.do(ctx, "upload", func(ctx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, uploadURL, bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		return req, nil
	})
	if err != nil {
		return err
	}
	switch up.status {
	case http.StatusNoContent:
		c.RoundsTrained++
		return nil
	case http.StatusConflict, http.StatusForbidden:
		return conflictError{string(up.body)}
	default:
		return fmt.Errorf("deploy: upload failed: status %d: %s", up.status, up.body)
	}
}
