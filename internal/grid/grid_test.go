package grid

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"helcfl/internal/obs"
)

// cell builds a simple test cell with a distinct key.
func cell(i int, run func(ctx context.Context, rng *rand.Rand) (any, error)) Cell {
	return Cell{Experiment: "test", Preset: "unit", Variant: fmt.Sprintf("i=%d", i), Seed: 1, Run: run}
}

func TestKeyIncludesEveryField(t *testing.T) {
	base := Cell{Experiment: "train", Preset: "tiny", Setting: "IID", Scheme: "HELCFL", Variant: "eta=0.5", Seed: 3}
	mutations := []func(*Cell){
		func(c *Cell) { c.Experiment = "fig1" },
		func(c *Cell) { c.Preset = "paper" },
		func(c *Cell) { c.Setting = "Non-IID" },
		func(c *Cell) { c.Scheme = "FedCS" },
		func(c *Cell) { c.Variant = "eta=0.9" },
		func(c *Cell) { c.Seed = 4 },
	}
	for i, mutate := range mutations {
		c := base
		mutate(&c)
		if c.Key() == base.Key() {
			t.Errorf("mutation %d did not change the key %q", i, base.Key())
		}
	}
	// Empty fields keep their slot: moving a value between adjacent fields
	// must not produce the same key.
	a := Cell{Experiment: "x", Scheme: "y"}
	b := Cell{Experiment: "x", Variant: "y"}
	if a.Key() == b.Key() {
		t.Fatalf("field shifting collided: %q", a.Key())
	}
}

func TestRNGDerivedOnlyFromKey(t *testing.T) {
	c := Cell{Experiment: "train", Preset: "tiny", Setting: "IID", Scheme: "HELCFL", Seed: 3}
	d := c // identical key
	if c.RNGSeed() != d.RNGSeed() {
		t.Fatalf("equal keys gave different RNG seeds")
	}
	if c.RNG().Int63() != d.RNG().Int63() {
		t.Fatalf("equal keys gave different RNG streams")
	}
	d.Variant = "eta=0.5"
	if c.RNGSeed() == d.RNGSeed() {
		t.Fatalf("different keys gave the same RNG seed")
	}
}

func TestRunnerPassesKeyDerivedRNG(t *testing.T) {
	cells := make([]Cell, 8)
	want := make([]int64, len(cells))
	got := make([]int64, len(cells))
	for i := range cells {
		i := i
		cells[i] = cell(i, func(_ context.Context, rng *rand.Rand) (any, error) {
			got[i] = rng.Int63()
			return nil, nil
		})
		want[i] = cells[i].RNG().Int63()
	}
	if _, err := (&Runner{Parallel: 4}).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d: runner rng drew %d, key-derived rng draws %d", i, got[i], want[i])
		}
	}
}

func TestResultsPlacedAtFixedIndices(t *testing.T) {
	const n = 32
	cells := make([]Cell, n)
	for i := range cells {
		i := i
		cells[i] = cell(i, func(context.Context, *rand.Rand) (any, error) { return i * 10, nil })
	}
	for _, parallel := range []int{1, 3, 16} {
		res, err := (&Runner{Parallel: parallel}).Run(context.Background(), cells)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i, v := range res {
			if v != i*10 {
				t.Fatalf("parallel=%d: results[%d] = %v, want %d", parallel, i, v, i*10)
			}
		}
	}
}

func TestWorkerPoolBounded(t *testing.T) {
	const n, bound = 64, 4
	var inFlight, peak atomic.Int64
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = cell(i, func(context.Context, *rand.Rand) (any, error) {
			cur := inFlight.Add(1)
			defer inFlight.Add(-1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			// Busy the slot briefly so overlap is observable.
			s := 0
			for j := 0; j < 50_000; j++ {
				s += j
			}
			return s, nil
		})
	}
	if _, err := (&Runner{Parallel: bound}).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > bound {
		t.Fatalf("observed %d cells in flight, pool bound is %d", p, bound)
	}
}

func TestDuplicateKeyRejected(t *testing.T) {
	run := func(context.Context, *rand.Rand) (any, error) { return nil, nil }
	cells := []Cell{cell(0, run), cell(1, run), cell(0, run)}
	_, err := (&Runner{}).Run(context.Background(), cells)
	var dup *DuplicateKeyError
	if !errors.As(err, &dup) {
		t.Fatalf("got %v, want DuplicateKeyError", err)
	}
	if dup.A != 0 || dup.B != 2 {
		t.Fatalf("collision indices = (%d,%d), want (0,2)", dup.A, dup.B)
	}
}

func TestNilRunRejected(t *testing.T) {
	cells := []Cell{cell(0, nil)}
	if _, err := (&Runner{}).Run(context.Background(), cells); err == nil {
		t.Fatal("nil Run accepted")
	}
}

func TestErrorCollection(t *testing.T) {
	boom := errors.New("boom")
	cells := make([]Cell, 6)
	for i := range cells {
		i := i
		cells[i] = cell(i, func(context.Context, *rand.Rand) (any, error) {
			if i%2 == 1 {
				return nil, fmt.Errorf("cell %d: %w", i, boom)
			}
			return i, nil
		})
	}
	res, err := (&Runner{Parallel: 3}).Run(context.Background(), cells)
	var errs Errors
	if !errors.As(err, &errs) {
		t.Fatalf("got %T (%v), want Errors", err, err)
	}
	if len(errs) != 3 {
		t.Fatalf("collected %d errors, want 3", len(errs))
	}
	for j, e := range errs {
		if e.Index != 2*j+1 {
			t.Errorf("errs[%d].Index = %d, want %d (index order)", j, e.Index, 2*j+1)
		}
		if !errors.Is(e, boom) {
			t.Errorf("errs[%d] does not unwrap to the cause", j)
		}
	}
	// Successful cells still delivered their results.
	for i := 0; i < len(cells); i += 2 {
		if res[i] != i {
			t.Errorf("results[%d] = %v, want %d despite sibling failures", i, res[i], i)
		}
	}
	if !strings.Contains(err.Error(), "and 2 more cell errors") {
		t.Errorf("aggregate error message = %q", err.Error())
	}
}

func TestCancellationMidGrid(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 30
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	var ran atomic.Int64
	cells := make([]Cell, n)
	for i := range cells {
		i := i
		cells[i] = cell(i, func(context.Context, *rand.Rand) (any, error) {
			ran.Add(1)
			if i < 2 {
				entered <- struct{}{}
				<-release
			}
			return i, nil
		})
	}
	done := make(chan struct{})
	var res []any
	var err error
	go func() {
		defer close(done)
		res, err = (&Runner{Parallel: 2}).Run(ctx, cells)
	}()
	<-entered // both workers are parked on the first two cells
	<-entered
	cancel()
	close(release) // let the in-flight cells finish
	<-done

	var errs Errors
	if !errors.As(err, &errs) {
		t.Fatalf("got %v, want Errors for the skipped cells", err)
	}
	if got := ran.Load(); got != 2 {
		t.Fatalf("%d cells ran after cancellation, want only the 2 in flight", got)
	}
	// In-flight cells completed and kept their results.
	for i := 0; i < 2; i++ {
		if res[i] != i {
			t.Errorf("in-flight results[%d] = %v, want %d", i, res[i], i)
		}
	}
	if len(errs) != n-2 {
		t.Fatalf("collected %d errors, want %d skips", len(errs), n-2)
	}
	for _, e := range errs {
		if !errors.Is(e, context.Canceled) {
			t.Fatalf("skip error = %v, want context.Canceled", e)
		}
	}
}

func TestEmptyAndNilContextGrid(t *testing.T) {
	res, err := (&Runner{}).Run(nil, nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty grid: res=%v err=%v", res, err)
	}
}

func TestWorkersClamping(t *testing.T) {
	r := &Runner{Parallel: 8}
	if got := r.Workers(3); got != 3 {
		t.Errorf("Workers(3) with Parallel=8 = %d, want 3", got)
	}
	r = &Runner{Parallel: -1}
	if got := r.Workers(100); got < 1 {
		t.Errorf("Workers(100) with Parallel=-1 = %d, want >= 1", got)
	}
	r = &Runner{Parallel: 2}
	if got := r.Workers(100); got != 2 {
		t.Errorf("Workers(100) with Parallel=2 = %d, want 2", got)
	}
}

func TestMetricsAndProgress(t *testing.T) {
	reg := obs.NewRegistry()
	var mu sync.Mutex
	var events []Event
	r := &Runner{Parallel: 2, Metrics: reg, Progress: func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, ev)
	}}
	boom := errors.New("boom")
	cells := make([]Cell, 5)
	for i := range cells {
		i := i
		cells[i] = cell(i, func(context.Context, *rand.Rand) (any, error) {
			if i == 4 {
				return nil, boom
			}
			return i, nil
		})
	}
	if _, err := r.Run(context.Background(), cells); err == nil {
		t.Fatal("expected the cell failure to surface")
	}
	if v := reg.Counter("helcfl_grid_cells_started_total", "").Value(); v != 5 {
		t.Errorf("started counter = %g, want 5", v)
	}
	if v := reg.Counter("helcfl_grid_cells_completed_total", "").Value(); v != 4 {
		t.Errorf("completed counter = %g, want 4", v)
	}
	if v := reg.Counter("helcfl_grid_cells_failed_total", "").Value(); v != 1 {
		t.Errorf("failed counter = %g, want 1", v)
	}
	if v := reg.Gauge("helcfl_grid_cells", "").Value(); v != 5 {
		t.Errorf("cells gauge = %g, want 5", v)
	}
	if v := reg.Gauge("helcfl_grid_workers", "").Value(); v != 2 {
		t.Errorf("workers gauge = %g, want 2", v)
	}
	if n := reg.Histogram("helcfl_grid_cell_seconds", "", obs.DefSecondsBuckets()).Count(); n != 5 {
		t.Errorf("cell histogram observed %d spans, want 5", n)
	}
	if n := reg.Histogram("helcfl_grid_campaign_seconds", "", obs.DefSecondsBuckets()).Count(); n != 1 {
		t.Errorf("campaign histogram observed %d spans, want 1", n)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 10 {
		t.Fatalf("saw %d progress events, want 10 (start+finish per cell)", len(events))
	}
	starts, finishes, failures := 0, 0, 0
	for _, ev := range events {
		if ev.Total != 5 {
			t.Fatalf("event total = %d, want 5", ev.Total)
		}
		if ev.Done {
			finishes++
			if ev.Err != nil {
				failures++
			}
			// The counters count finish events, in delivery order.
			if ev.Completed+ev.Failed != finishes || ev.Failed != failures {
				t.Fatalf("finish event %d: completed=%d failed=%d, want %d finished, %d failed",
					finishes, ev.Completed, ev.Failed, finishes, failures)
			}
		} else {
			starts++
		}
	}
	if starts != 5 || finishes != 5 || failures != 1 {
		t.Fatalf("starts=%d finishes=%d failures=%d, want 5/5/1", starts, finishes, failures)
	}
}

func TestErrorsUnwrapExposesCauses(t *testing.T) {
	sentinel := errors.New("boom")
	es := Errors{
		{Index: 0, Key: "a", Err: context.Canceled},
		{Index: 1, Key: "b", Err: sentinel},
	}
	if !errors.Is(es, context.Canceled) {
		t.Fatal("errors.Is must see context.Canceled through Errors")
	}
	if !errors.Is(es, sentinel) {
		t.Fatal("errors.Is must see the sentinel through Errors")
	}
	var ce *CellError
	if !errors.As(es, &ce) || ce.Index != 0 {
		t.Fatalf("errors.As gave %+v", ce)
	}
}
