// Package fl is the federated-learning engine: the FLCC-side training loop
// of Algorithm 1, client-side local updates (Eq. 3), FedAvg aggregation
// (Eq. 18), evaluation, and the separated-learning (SL) baseline engine.
package fl

import (
	"fmt"

	"helcfl/internal/device"
	"helcfl/internal/obs/span"
)

// Planner makes the per-round FLCC scheduling decision: which users
// participate and at which CPU frequencies they run (Algorithm 1, line 4).
// Implementations include the HELCFL scheduler (Algorithms 2+3) and the
// baseline selection/frequency combinations.
type Planner interface {
	// Name identifies the scheme in reports.
	Name() string
	// PlanRound returns the selected user indices and their operating
	// frequencies for training round j (0-based). The slices align 1:1.
	// Planners may keep state across rounds (e.g. HELCFL's appearance
	// counters), so rounds must be requested in order.
	PlanRound(j int) (selected []int, freqs []float64)
}

// Observer is an optional Planner extension: planners that implement it
// receive per-round training feedback (the selected users and their final
// local losses) after each aggregation, enabling statistical-utility
// selection (e.g. the loss-aware HELCFL extension).
type Observer interface {
	// ObserveRound reports round j's selected users and their local losses.
	ObserveRound(j int, selected []int, losses []float64)
}

// DecisionDetailer is an optional Planner extension: planners that can
// report Algorithm 2's internal decision state expose it here so the
// engine's event stream (Config.Sink) can include it.
type DecisionDetailer interface {
	// SelectionDetail returns the fleet-wide Eq. (20) utility vector
	// computed at the last PlanRound and the current α_q appearance
	// counters; either may be nil when unavailable.
	SelectionDetail() (utilities []float64, appearances []int)
}

// TracedPlanner is an optional Planner extension: planners whose decision
// has internally separable phases (HELCFL's Algorithm 2 selection and
// Algorithm 3 DVFS solve) receive the engine's span recorder so those
// phases appear as children of the round's plan span. The engine calls
// SetTrace before every PlanRound with that round's plan-span ref; it is
// never called when tracing is off.
type TracedPlanner interface {
	SetTrace(rec *span.Recorder, parent span.Ref)
}

// EdgeTopology is an optional Planner extension declaring a hierarchical
// aggregation tier: users upload to one of NumEdges edge aggregators (their
// TDMA uplinks run in parallel, sim.Scratch.SimulateRoundEdges) and the
// FLCC performs a second-level weighted average over the edge models
// (FedAvgHierInto). A planner without it has one edge, the FLCC — the
// paper's flat scheme.
type EdgeTopology interface {
	// NumEdges returns E ≥ 1, the number of edge aggregators.
	NumEdges() int
	// EdgeOf maps a fleet index to its edge aggregator in [0, NumEdges()).
	EdgeOf(q int) int
}

// flcc is the topology of a planner without EdgeTopology: one edge, the
// FLCC itself.
type flcc struct{}

func (flcc) NumEdges() int  { return 1 }
func (flcc) EdgeOf(int) int { return 0 }

// TopologyOf returns the aggregation tier p's rounds run on: its
// EdgeTopology, or the single-edge FLCC for a planner without one. The
// engine and the deploy server both aggregate through it.
func TopologyOf(p Planner) EdgeTopology {
	if t, ok := p.(EdgeTopology); ok && t.NumEdges() > 0 {
		return t
	}
	return flcc{}
}

// StatefulPlanner is an optional Planner extension for checkpoint/resume:
// planners whose decisions depend on cross-round mutable state (the HELCFL
// α_q decay counters, loss-feedback memory) expose it as an opaque blob so
// an engine snapshot can restore the exact selection sequence. Stateless
// planners (FedCS, fixed policies) need not implement it.
type StatefulPlanner interface {
	Planner
	// ExportState serializes the planner's cross-round mutable state.
	ExportState() ([]byte, error)
	// ImportState restores a previously exported state into a freshly
	// constructed planner of the same kind and fleet.
	ImportState([]byte) error
}

// Composed glues an independent selection strategy and frequency policy
// into a Planner; most baselines are expressed this way.
type Composed struct {
	// Label names the combination.
	Label string
	// Devices is the full fleet the Select indices refer to.
	Devices []*device.Device
	// Select returns the users participating in round j.
	Select func(j int) []int
	// Frequencies assigns an operating frequency to each selected device.
	Frequencies func(selected []*device.Device) []float64
}

// Name implements Planner.
func (c *Composed) Name() string { return c.Label }

// PlanRound implements Planner.
func (c *Composed) PlanRound(j int) ([]int, []float64) {
	sel := c.Select(j)
	devs := make([]*device.Device, len(sel))
	for i, q := range sel {
		if q < 0 || q >= len(c.Devices) {
			panic(fmt.Sprintf("fl: planner %q selected user %d outside fleet of %d", c.Label, q, len(c.Devices)))
		}
		devs[i] = c.Devices[q]
	}
	return sel, c.Frequencies(devs)
}
