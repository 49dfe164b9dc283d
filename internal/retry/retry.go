// Package retry is the jittered-exponential-backoff retry loop behind
// deploy.Client, its only caller, which retries register/poll/upload
// against the FLCC. Each retry waits an exponential delay doubling from
// Base up to DefaultCap, with the upper half jittered by a seeded generator
// so a fleet of devices retrying the same outage does not stampede in
// lockstep.
//
// Usage: the per-attempt function reports a retryable failure by wrapping
// its cause with Transient; any other error is permanent and returned
// immediately. When the attempt budget runs out, Do returns an
// *ExhaustedError carrying the final transient cause — callers map it to
// their own sentinel (e.g. deploy.ErrUnavailable) with errors.As.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Defaults applied by Policy when the corresponding field is zero.
const (
	// DefaultBase is the delay before the first retry.
	DefaultBase = 10 * time.Millisecond
	// DefaultCap bounds the exponential growth.
	DefaultCap = 2 * time.Second
)

// Policy configures one retry loop. The zero value retries nothing (a
// single attempt) with default backoff timing.
type Policy struct {
	// MaxRetries is how many extra attempts follow the first failure; 0
	// means the first failure is final.
	MaxRetries int
	// Base is the delay before the first retry; it doubles per retry.
	// Defaults to DefaultBase.
	Base time.Duration
	// Jitter, when non-nil, randomizes the upper half of each delay
	// (d/2 + rand[0, d/2]). Seed it per client so a fleet's retry schedule
	// is reproducible yet decorrelated. Nil keeps the full deterministic
	// delay.
	Jitter *rand.Rand
}

// transientError marks a retryable failure.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }

// Unwrap exposes the cause, so errors.Is/As see through the marker.
func (e *transientError) Unwrap() error { return e.err }

// Transient marks err as retryable: Do will back off and try again instead
// of returning it. A nil err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// ExhaustedError reports that every attempt failed transiently. Unwrap
// exposes the final attempt's cause.
type ExhaustedError struct {
	// Attempts is the total number of attempts made (1 + MaxRetries).
	Attempts int
	// Last is the final transient cause, unwrapped from its marker.
	Last error
}

// Error implements error.
func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("retry: failed after %d attempt(s): %v", e.Attempts, e.Last)
}

// Unwrap exposes the final cause to errors.Is/As.
func (e *ExhaustedError) Unwrap() error { return e.Last }

// Do runs fn until it succeeds, fails permanently, or the attempt budget is
// exhausted. fn receives the 0-based attempt index (retries are separate
// requests on the wire and deserve separate attribution — spans, logs).
// A Transient-wrapped error triggers a backoff sleep and another attempt;
// any other error returns immediately. Context cancellation aborts the loop
// with ctx.Err(), both between attempts and during a backoff sleep.
func (p Policy) Do(ctx context.Context, fn func(ctx context.Context, attempt int) error) error {
	var last error
	for attempt := 0; attempt <= p.MaxRetries; attempt++ {
		if attempt > 0 {
			if err := p.Sleep(ctx, attempt); err != nil {
				return err
			}
		}
		err := fn(ctx, attempt)
		if err == nil {
			return nil
		}
		var t *transientError
		if !errors.As(err, &t) {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		last = t.err
	}
	return &ExhaustedError{Attempts: p.MaxRetries + 1, Last: last}
}

// Sleep blocks for the backoff delay before retry attempt (1-based): Base
// doubling per attempt, capped at DefaultCap (overflow also caps), with the upper
// half jittered when a Jitter source is set. Returns early with ctx.Err()
// on cancellation.
func (p Policy) Sleep(ctx context.Context, attempt int) error {
	timer := time.NewTimer(p.Delay(attempt))
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// Delay computes the backoff duration before retry attempt (1-based)
// without sleeping. Exposed so callers can report or test the schedule.
func (p Policy) Delay(attempt int) time.Duration {
	base := p.Base
	if base <= 0 {
		base = DefaultBase
	}
	d := base << (attempt - 1)
	if d > DefaultCap || d <= 0 {
		d = DefaultCap
	}
	if p.Jitter != nil {
		d = d/2 + time.Duration(p.Jitter.Int63n(int64(d/2)+1))
	}
	return d
}
