// Package grid turns the paper's evaluation into declarative campaign
// grids. The experiment layer (internal/experiments) describes each study —
// Fig. 2's five schemes × two settings, Table I, the η/C/compression/…
// ablations, multi-seed robustness — as a flat list of Cells: independent,
// self-contained units keyed by what they compute. A Runner executes a grid
// on a bounded worker pool with results placed at fixed indices, so a
// parallel run is bit-identical to a serial one.
//
// Determinism contract (see docs/GRID.md):
//
//   - A Cell must derive everything — data, fleet, model init, planner
//     randomness — from its own fields (Seed and the key-derived RNG),
//     never from execution order, shared mutable state, or the clock.
//   - Two cells with equal keys are assumed interchangeable; the Runner
//     rejects duplicate keys in one grid, and plan composition dedupes by
//     key so one computation is shared by every figure that needs it.
//   - The Runner writes result i for cells[i] only; worker scheduling can
//     reorder execution but never placement.
package grid

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
)

// Cell is one independent unit of a campaign grid: a fully specified
// experiment (preset × setting × scheme × config variant × seed) whose Run
// builds its own environment and returns its result. Cells must not share
// mutable state; the Runner may execute any subset of a grid concurrently.
type Cell struct {
	// Experiment names the computation kind ("train", "fig1", "rb", …).
	// Cells that perform the same computation must use the same Experiment
	// so plan composition can share one execution.
	Experiment string
	// Preset is the preset name (Preset.Name).
	Preset string
	// Setting is the data setting ("IID", "Non-IID"), or "" when the unit
	// is setting-independent.
	Setting string
	// Scheme is the scheduling scheme, or "" when not applicable.
	Scheme string
	// Variant names any configuration mutation beyond the preset defaults
	// ("eta=0.5", "dropout=0.1", "compressor=topk10"). A cell whose Run
	// deviates from the plain (Experiment, Preset, Setting, Scheme, Seed)
	// computation MUST set Variant: equal keys are assumed interchangeable.
	Variant string
	// Seed is the base seed the cell's environment derives from.
	Seed int64
	// Run executes the cell. rng is the cell's private generator, derived
	// only from the cell key (see RNGSeed) — cells needing extra randomness
	// draw from it (or from Seed) so results are independent of execution
	// order. Run must honor ctx promptly only at unit boundaries; the
	// Runner checks ctx before starting each cell.
	Run func(ctx context.Context, rng *rand.Rand) (any, error)
}

// Key returns the cell's identity: the joined field tuple. Every field slot
// is always present (empty fields keep their separator) so distinct cells
// cannot collide by field shifting.
func (c Cell) Key() string {
	return strings.Join([]string{
		c.Experiment, c.Preset, c.Setting, c.Scheme, c.Variant,
		"seed=" + strconv.FormatInt(c.Seed, 10),
	}, "|")
}

// RNGSeed derives the cell's RNG seed from the key alone (FNV-1a 64), so
// per-cell randomness depends only on what the cell is, never on when or
// where in the pool it runs.
func (c Cell) RNGSeed() int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(c.Key()))
	return int64(h.Sum64())
}

// RNG returns a fresh generator seeded with RNGSeed. The Runner passes one
// to Run; this constructor is exported for tests and serial replay.
func (c Cell) RNG() *rand.Rand { return rand.New(rand.NewSource(c.RNGSeed())) }

// CellError is the typed per-cell failure the Runner collects: which cell
// (by index and key) failed, and why. Cells never started because the
// context was canceled carry that context error.
type CellError struct {
	// Index is the cell's position in the grid.
	Index int
	// Key is the cell's identity at failure time.
	Key string
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *CellError) Error() string {
	return fmt.Sprintf("grid: cell %d (%s): %v", e.Index, e.Key, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// Errors is every cell failure of one grid run, in index order.
type Errors []*CellError

// Error implements error: the first failure plus the overflow count.
func (es Errors) Error() string {
	switch len(es) {
	case 0:
		return "grid: no cell errors"
	case 1:
		return es[0].Error()
	}
	return fmt.Sprintf("%s (and %d more cell errors)", es[0].Error(), len(es)-1)
}

// Unwrap exposes every cell failure to errors.Is/As, so callers can test
// for a shared cause (e.g. context.Canceled) across the whole grid.
func (es Errors) Unwrap() []error {
	out := make([]error, len(es))
	for i, e := range es {
		out[i] = e
	}
	return out
}

// DuplicateKeyError reports two cells in one grid sharing an identity —
// either a missing Variant on a mutated cell or a genuine duplicate; both
// are authoring bugs, caught before any cell runs.
type DuplicateKeyError struct {
	Key string
	// A and B are the colliding indices, A < B.
	A, B int
}

// Error implements error.
func (e *DuplicateKeyError) Error() string {
	return fmt.Sprintf("grid: cells %d and %d share key %q; set Variant on mutated cells", e.A, e.B, e.Key)
}

// Validate rejects grids with nil Run functions or colliding keys.
func Validate(cells []Cell) error {
	seen := make(map[string]int, len(cells))
	for i, c := range cells {
		if c.Run == nil {
			return fmt.Errorf("grid: cell %d (%s) has no Run function", i, c.Key())
		}
		k := c.Key()
		if j, ok := seen[k]; ok {
			return &DuplicateKeyError{Key: k, A: j, B: i}
		}
		seen[k] = i
	}
	return nil
}
