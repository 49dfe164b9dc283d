package grid

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"helcfl/internal/obs"
	"helcfl/internal/obs/span"
)

// Event is one progress notification from a Runner. Exactly one of the two
// phases is reported per cell: a start event (Done=false) when a worker
// picks the cell up, and a finish event (Done=true, Err set on failure)
// when its Run returns. Cells skipped because the context was canceled emit
// no events; they surface as CellErrors instead.
type Event struct {
	// Key identifies the cell; Total is the grid size.
	Key   string
	Total int
	// Done is false for the start notification, true for the finish one.
	Done bool
	// Err is the cell's failure (finish events only).
	Err error
	// Completed and Failed count the finish events delivered so far, this
	// one included, so Completed+Failed counts up by one per finish event.
	Completed, Failed int
}

// Runner executes a campaign grid on a bounded worker pool. The zero value
// runs at full host parallelism with no observability attached.
type Runner struct {
	// Parallel bounds the worker pool; <= 0 means GOMAXPROCS. The pool
	// never exceeds the grid size.
	Parallel int
	// Metrics, when set, receives the campaign counters
	// (helcfl_grid_cells_{started,completed,failed}_total), grid gauges,
	// and the campaign/cell wall-second histograms.
	Metrics *obs.Registry
	// Progress, when set, receives start/finish events. The Runner
	// serializes calls, so the callback may be stateful.
	Progress func(Event)
}

// Workers returns the effective pool size for an n-cell grid.
func (r *Runner) Workers(n int) int {
	w := r.Parallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// gridMetrics resolves the runner's registry instruments once per Run.
type gridMetrics struct {
	started, completed, failed *obs.Counter
	cells, workers             *obs.Gauge
	campaignSec, cellSec       *obs.Histogram
}

func newGridMetrics(reg *obs.Registry) *gridMetrics {
	if reg == nil {
		return nil
	}
	// Campaigns span sub-second smoke grids to multi-hour paper
	// reproductions: 10 ms .. ~42 min for cells, up to ~5.8 h campaign.
	return &gridMetrics{
		started:     reg.Counter("helcfl_grid_cells_started_total", "Grid cells picked up by a worker."),
		completed:   reg.Counter("helcfl_grid_cells_completed_total", "Grid cells finished successfully."),
		failed:      reg.Counter("helcfl_grid_cells_failed_total", "Grid cells whose Run returned an error."),
		cells:       reg.Gauge("helcfl_grid_cells", "Size of the most recent campaign grid."),
		workers:     reg.Gauge("helcfl_grid_workers", "Worker-pool size of the most recent campaign."),
		campaignSec: reg.Histogram("helcfl_grid_campaign_seconds", "Wall-clock seconds per campaign grid.", obs.ExpBuckets(0.01, 2, 21)),
		cellSec:     reg.Histogram("helcfl_grid_cell_seconds", "Wall-clock seconds per grid cell.", obs.ExpBuckets(0.01, 2, 18)),
	}
}

// Run executes every cell of the grid and returns the results with
// results[i] holding cells[i]'s value — placement is by index, never by
// completion order, so a parallel run is bit-identical to a serial one.
//
// The grid is validated (non-nil Runs, unique keys) before any cell starts.
// Each worker checks ctx before pulling the next cell; once ctx is
// canceled, unstarted cells are marked with a CellError wrapping ctx.Err()
// and in-flight cells run to completion (their Runs see the canceled ctx
// and may return early).
//
// On any failure the returned error is an Errors slice in index order;
// results of successful cells are still populated.
func (r *Runner) Run(ctx context.Context, cells []Cell) ([]any, error) {
	if err := Validate(cells); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(cells)
	results := make([]any, n)
	if n == 0 {
		return results, nil
	}

	workers := r.Workers(n)
	m := newGridMetrics(r.Metrics)
	if m != nil {
		m.cells.Set(float64(n))
		m.workers.Set(float64(workers))
		defer obs.StartSpan(m.campaignSec).End()
	}

	// When the caller's context carries a span recorder, the campaign and
	// every cell record trace spans; cell Runs see a context whose current
	// parent is their own cell span, so engine phases nest under it.
	rec, parent := span.FromContext(ctx)
	campSp := rec.Start(parent, "grid.campaign")
	campSp.SetInt("cells", int64(n))
	campSp.SetInt("workers", int64(workers))
	defer campSp.End()
	campRef := campSp.Ref()

	cellErrs := make([]*CellError, n)
	var progressMu sync.Mutex
	completed, failed := 0, 0
	emit := func(ev Event) {
		if r.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		switch {
		case ev.Done && ev.Err != nil:
			failed++
		case ev.Done:
			completed++
		}
		ev.Completed, ev.Failed = completed, failed
		r.Progress(ev)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				key := cells[i].Key()
				if err := ctx.Err(); err != nil {
					cellErrs[i] = &CellError{Index: i, Key: key, Err: err}
					continue
				}
				if m != nil {
					m.started.Inc()
				}
				emit(Event{Key: key, Total: n})

				var timer obs.Span
				if m != nil {
					timer = obs.StartSpan(m.cellSec)
				}
				cellSp := rec.Start(campRef, "grid.cell")
				cellSp.SetStr("key", key)
				cellSp.SetInt("index", int64(i))
				runCtx := ctx
				if rec != nil {
					runCtx = span.WithParent(ctx, rec, cellSp.Ref())
				}
				v, err := cells[i].Run(runCtx, cells[i].RNG())
				cellSp.End()
				timer.End()

				if err != nil {
					cellErrs[i] = &CellError{Index: i, Key: key, Err: err}
					if m != nil {
						m.failed.Inc()
					}
				} else {
					results[i] = v
					if m != nil {
						m.completed.Inc()
					}
				}
				emit(Event{Key: key, Total: n, Done: true, Err: err})
			}
		}()
	}
	wg.Wait()

	var errs Errors
	for _, e := range cellErrs {
		if e != nil {
			errs = append(errs, e)
		}
	}
	if len(errs) > 0 {
		return results, errs
	}
	return results, nil
}
