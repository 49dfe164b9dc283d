package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	p := Policy{MaxRetries: 5, Base: time.Microsecond}
	calls := 0
	err := p.Do(context.Background(), func(_ context.Context, attempt int) error {
		if attempt != calls {
			t.Fatalf("attempt %d, want %d", attempt, calls)
		}
		calls++
		if calls < 3 {
			return Transient(fmt.Errorf("flaky %d", calls))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("made %d calls, want 3", calls)
	}
}

func TestDoPermanentErrorStopsImmediately(t *testing.T) {
	p := Policy{MaxRetries: 5, Base: time.Microsecond}
	boom := errors.New("boom")
	calls := 0
	err := p.Do(context.Background(), func(context.Context, int) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if calls != 1 {
		t.Fatalf("made %d calls, want 1", calls)
	}
}

func TestDoExhaustionReportsAttemptsAndLastCause(t *testing.T) {
	p := Policy{MaxRetries: 2, Base: time.Microsecond}
	err := p.Do(context.Background(), func(_ context.Context, attempt int) error {
		return Transient(fmt.Errorf("attempt %d", attempt))
	})
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("got %T (%v), want *ExhaustedError", err, err)
	}
	if ex.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", ex.Attempts)
	}
	if got := ex.Last.Error(); got != "attempt 2" {
		t.Fatalf("Last = %q, want final attempt's cause", got)
	}
}

func TestDoZeroPolicyIsSingleAttempt(t *testing.T) {
	calls := 0
	err := Policy{}.Do(context.Background(), func(context.Context, int) error {
		calls++
		return Transient(errors.New("nope"))
	})
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex.Attempts != 1 {
		t.Fatalf("got %v, want single-attempt exhaustion", err)
	}
	if calls != 1 {
		t.Fatalf("made %d calls, want 1", calls)
	}
}

func TestDoHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxRetries: 100, Base: time.Hour} // would block forever without ctx
	calls := 0
	err := p.Do(ctx, func(context.Context, int) error {
		calls++
		cancel()
		return Transient(errors.New("transient, but ctx died"))
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("made %d calls, want 1", calls)
	}
}

func TestTransientNilStaysNil(t *testing.T) {
	if Transient(nil) != nil {
		t.Fatal("Transient(nil) should stay nil")
	}
}

func TestDoSeesTransientThroughWrapping(t *testing.T) {
	p := Policy{MaxRetries: 1, Base: time.Microsecond}
	calls := 0
	err := p.Do(context.Background(), func(context.Context, int) error {
		calls++
		if calls == 1 {
			return fmt.Errorf("wrapped: %w", Transient(errors.New("cause")))
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("wrapped transient: err %v after %d calls, want a retry that succeeds", err, calls)
	}
}

func TestDelayDoublesJittersAndCaps(t *testing.T) {
	p := Policy{Base: 250 * time.Millisecond}
	for attempt, want := range map[int]time.Duration{
		1: 250 * time.Millisecond,
		2: 500 * time.Millisecond,
		3: time.Second,
		4: DefaultCap,
		5: DefaultCap, // capped
	} {
		if got := p.Delay(attempt); got != want {
			t.Fatalf("Delay(%d) = %v, want %v", attempt, got, want)
		}
	}
	// Overflowed shifts cap instead of going negative.
	if got := p.Delay(64); got != DefaultCap {
		t.Fatalf("overflowed Delay = %v, want cap", got)
	}
	// Jitter keeps the delay in [d/2, d] and is reproducible from the seed.
	jp := Policy{Base: 250 * time.Millisecond, Jitter: rand.New(rand.NewSource(7))}
	ref := Policy{Base: 250 * time.Millisecond, Jitter: rand.New(rand.NewSource(7))}
	for attempt := 1; attempt <= 6; attempt++ {
		d := jp.Delay(attempt)
		plain := p.Delay(attempt)
		if d < plain/2 || d > plain {
			t.Fatalf("jittered Delay(%d) = %v outside [%v, %v]", attempt, d, plain/2, plain)
		}
		if ref.Delay(attempt) != d {
			t.Fatalf("jittered delay not reproducible from seed at attempt %d", attempt)
		}
	}
}

func TestSleepReturnsContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Policy{Base: time.Hour}.Sleep(ctx, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
