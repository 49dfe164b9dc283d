package selection

import (
	"fmt"
	"sort"
	"sync"

	"helcfl/internal/core"
	"helcfl/internal/device"
	"helcfl/internal/obs/span"
	"helcfl/internal/wireless"
)

// HELCFLPlanner adapts the core scheduler (Algorithms 2+3) to fl.Planner
// over an edge-aggregation tier: the fleet is partitioned into E contiguous
// shards, one per edge aggregator, and each shard runs its own Algorithm
// 2 + 3 plan against its own edge uplink. The paper's flat scheme is E = 1:
// one shard is the whole fleet and the single edge is the FLCC.
//
// With E > 1 the per-edge plans are independent, so they solve in
// parallel; the per-edge TDMA chains also run in parallel in the round
// simulation (the planner implements fl.EdgeTopology), and the FLCC
// performs a second-level weighted average over the edge models
// (fl.FedAvgHierInto).
type HELCFLPlanner struct {
	// DisableDVFS replaces Algorithm 3 with max-frequency operation; used
	// by the Fig. 3 ablation ("HELCFL w/o DVFS").
	DisableDVFS bool

	name   string
	ch     wireless.Channel
	bits   float64
	scheds []*core.Scheduler
	// offsets[e] is the first fleet index of edge e's shard; offsets[E] = Q.
	// Shard-local index l on edge e is fleet index offsets[e]+l.
	offsets []int

	tr       *span.Recorder
	trParent span.Ref

	// Per-edge plan parts, concatenated edge-major into each round's result.
	selParts  [][]int
	freqParts [][]float64
}

// NewHELCFL builds the paper's flat HELCFL planner: one scheduler over the
// whole fleet.
func NewHELCFL(devs []*device.Device, ch wireless.Channel, modelBits float64, params core.Params) (*HELCFLPlanner, error) {
	return newHELCFL("HELCFL", devs, 1, ch, modelBits, params)
}

// NewHierHELCFL partitions devs into numEdges contiguous balanced shards
// (sizes differ by at most one) and builds one core scheduler per shard.
// Every shard must be non-empty: numEdges may not exceed the fleet size.
func NewHierHELCFL(devs []*device.Device, numEdges int, ch wireless.Channel, modelBits float64, params core.Params) (*HELCFLPlanner, error) {
	return newHELCFL("HELCFL-hier", devs, numEdges, ch, modelBits, params)
}

func newHELCFL(name string, devs []*device.Device, numEdges int, ch wireless.Channel, modelBits float64, params core.Params) (*HELCFLPlanner, error) {
	if numEdges <= 0 {
		return nil, fmt.Errorf("selection: non-positive edge count %d", numEdges)
	}
	if numEdges > max(len(devs), 1) {
		return nil, fmt.Errorf("selection: %d edge aggregators for %d devices", numEdges, len(devs))
	}
	h := &HELCFLPlanner{
		name:      name,
		ch:        ch,
		bits:      modelBits,
		scheds:    make([]*core.Scheduler, numEdges),
		offsets:   make([]int, numEdges+1),
		selParts:  make([][]int, numEdges),
		freqParts: make([][]float64, numEdges),
	}
	base, rem := len(devs)/numEdges, len(devs)%numEdges
	off := 0
	for e := 0; e < numEdges; e++ {
		h.offsets[e] = off
		size := base
		if e < rem {
			size++
		}
		off += size
	}
	h.offsets[numEdges] = off
	for e := 0; e < numEdges; e++ {
		shard := devs[h.offsets[e]:h.offsets[e+1]]
		sched, err := core.NewScheduler(shard, ch, modelBits, params)
		if err != nil {
			if numEdges == 1 {
				return nil, err
			}
			return nil, fmt.Errorf("selection: edge %d: %w", e, err)
		}
		h.scheds[e] = sched
	}
	return h, nil
}

// Name implements fl.Planner.
func (h *HELCFLPlanner) Name() string {
	if h.DisableDVFS {
		return h.name + "-noDVFS"
	}
	return h.name
}

// Scheduler exposes edge 0's core scheduler — the whole fleet's at E = 1
// (for inspection in tests and reports).
func (h *HELCFLPlanner) Scheduler() *core.Scheduler { return h.scheds[0] }

// NumEdges implements fl.EdgeTopology.
func (h *HELCFLPlanner) NumEdges() int { return len(h.scheds) }

// EdgeOf implements fl.EdgeTopology: the shard owning fleet index q.
func (h *HELCFLPlanner) EdgeOf(q int) int {
	// First offset boundary strictly above q, over the E interior bounds.
	return sort.SearchInts(h.offsets[1:], q+1)
}

// SetTrace implements fl.TracedPlanner: Algorithm 2 selection and the
// Algorithm 3 DVFS solve appear as children of each round's plan span —
// beneath one sched.edge span per edge when E > 1.
func (h *HELCFLPlanner) SetTrace(rec *span.Recorder, parent span.Ref) {
	h.tr, h.trParent = rec, parent
}

// PlanRound implements fl.Planner. At E = 1 the single scheduler plans
// inline. Otherwise every edge plans its own shard on its own goroutine,
// and the parts concatenate edge-major with shard-local indices lifted to
// fleet indices. Each edge's decision depends only on its own scheduler,
// so the result is deterministic regardless of the goroutine interleaving.
func (h *HELCFLPlanner) PlanRound(j int) ([]int, []float64) {
	e0 := len(h.scheds)
	if e0 == 1 {
		return h.planEdge(0, h.trParent)
	}
	var wg sync.WaitGroup
	wg.Add(e0)
	for e := 0; e < e0; e++ {
		go func(e int) {
			defer wg.Done()
			sp := h.tr.Start(h.trParent, "sched.edge")
			sp.SetInt("edge", int64(e))
			sp.SetInt("edge.users", int64(h.scheds[e].NumUsers()))
			h.selParts[e], h.freqParts[e] = h.planEdge(e, sp.Ref())
			sp.SetInt("edge.selected", int64(len(h.selParts[e])))
			sp.End()
		}(e)
	}
	wg.Wait()
	total := 0
	for e := range h.selParts {
		total += len(h.selParts[e])
	}
	selected := make([]int, 0, total)
	freqs := make([]float64, 0, total)
	for e := range h.selParts {
		off := h.offsets[e]
		for i, l := range h.selParts[e] {
			selected = append(selected, off+l)
			freqs = append(freqs, h.freqParts[e][i])
		}
	}
	return selected, freqs
}

// planEdge runs Algorithm 2 + 3 on edge e's shard scheduler, tracing under
// parent, and returns the shard-local plan.
func (h *HELCFLPlanner) planEdge(e int, parent span.Ref) ([]int, []float64) {
	sched := h.scheds[e]
	if h.DisableDVFS {
		sel := sched.SelectRound()
		fmax := sched.Fleet().FMax
		freqs := make([]float64, len(sel))
		for i, l := range sel {
			freqs[i] = fmax[l]
		}
		return sel, freqs
	}
	sched.SetTrace(h.tr, parent)
	return sched.PlanRound(h.ch, h.bits)
}

// SelectionDetail implements fl.DecisionDetailer: the per-edge Eq. (20)
// utility vectors and decay counters stitched back into fleet order. Nil
// before the first round.
func (h *HELCFLPlanner) SelectionDetail() ([]float64, []int) {
	q := h.offsets[len(h.offsets)-1]
	util := make([]float64, 0, q)
	alpha := make([]int, 0, q)
	for _, sched := range h.scheds {
		u := sched.LastUtilities()
		if u == nil {
			return nil, nil
		}
		util = append(util, u...)
		alpha = append(alpha, sched.Appearances()...)
	}
	return util, alpha
}

// hierState is the gob wire form of an E > 1 planner's cross-round state:
// one decay-state snapshot per edge shard, in edge order. At E = 1 the
// state is the bare core.SchedulerState, the form flat checkpoints hold.
type hierState struct {
	Edges []core.SchedulerState
}

// ExportState implements fl.StatefulPlanner: the Algorithm 2 decay state.
func (h *HELCFLPlanner) ExportState() ([]byte, error) {
	if len(h.scheds) == 1 {
		return gobEncode(h.scheds[0].ExportState())
	}
	st := hierState{Edges: make([]core.SchedulerState, len(h.scheds))}
	for e, sched := range h.scheds {
		st.Edges[e] = sched.ExportState()
	}
	return gobEncode(st)
}

// ImportState implements fl.StatefulPlanner.
func (h *HELCFLPlanner) ImportState(raw []byte) error {
	if len(h.scheds) == 1 {
		var st core.SchedulerState
		if err := gobDecode(raw, &st); err != nil {
			return err
		}
		return h.scheds[0].ImportState(st)
	}
	var st hierState
	if err := gobDecode(raw, &st); err != nil {
		return err
	}
	if len(st.Edges) != len(h.scheds) {
		return fmt.Errorf("selection: state has %d edge shards, planner has %d", len(st.Edges), len(h.scheds))
	}
	for e, sched := range h.scheds {
		if err := sched.ImportState(st.Edges[e]); err != nil {
			return fmt.Errorf("selection: edge %d: %w", e, err)
		}
	}
	return nil
}
