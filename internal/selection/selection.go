// Package selection implements the user-selection strategies and
// operating-frequency policies of the four baselines the paper compares
// against, plus the adapters that expose the HELCFL scheduler
// (internal/core) as an fl.Planner.
//
// Baselines (Section VII-A):
//   - Classic FL [9]: uniformly random selection of Q·C users, max frequency.
//   - FedCS [10]: greedy selection of as many short-delay users as fit a
//     per-round deadline, max frequency.
//   - FEDL [12]: random selection like Classic FL, per-user closed-form
//     frequency balancing compute energy against delay.
//   - SL [4]: separated learning; implemented in internal/fl (RunSL).
package selection

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"helcfl/internal/core"
	"helcfl/internal/device"
	"helcfl/internal/fl"
	"helcfl/internal/sim"
	"helcfl/internal/wireless"
)

// RandomSelector draws max(⌊Q·C⌋, 1) distinct users uniformly per round — the
// Classic FL selection rule.
type RandomSelector struct {
	Q        int
	Fraction float64
	rng      *rand.Rand
}

// NewRandomSelector returns a seeded random selector over Q users.
func NewRandomSelector(q int, fraction float64, rng *rand.Rand) *RandomSelector {
	if q <= 0 || fraction <= 0 || fraction > 1 {
		panic(fmt.Sprintf("selection: bad random selector (Q=%d, C=%g)", q, fraction))
	}
	return &RandomSelector{Q: q, Fraction: fraction, rng: rng}
}

// N returns the per-round selection count.
func (r *RandomSelector) N() int { return core.CohortSize(r.Q, r.Fraction) }

// Select returns the users for round j.
func (r *RandomSelector) Select(j int) []int {
	return r.rng.Perm(r.Q)[:r.N()]
}

// FedCSSelector reproduces the greedy deadline-packing of Nishio &
// Yonetani: each round it admits users in ascending order of estimated
// total delay (T_cal at max frequency + T_com), adding users as long as the
// estimated TDMA round completion stays within the per-round deadline. At
// least one user is always selected.
type FedCSSelector struct {
	// DeadlineSec is the per-round completion budget.
	DeadlineSec float64

	devs  []*device.Device
	ch    wireless.Channel
	bits  float64
	steps int

	// Per-round scratch, reused across candidates and rounds.
	reqs  []wireless.UploadRequest
	slots []wireless.UploadSlot
}

// compareTotalDelay orders pending uploads by estimated total delay
// (compute at maximum frequency plus upload) ascending, ties by user index.
func compareTotalDelay(a, b wireless.UploadRequest) int {
	da, db := a.ComputeDone+a.Duration, b.ComputeDone+b.Duration
	switch {
	case da < db:
		return -1
	case da > db:
		return 1
	}
	return cmp.Compare(a.User, b.User)
}

// NewFedCSSelector builds the selector. modelBits is C_model; steps scales
// compute delay like core.Params.StepsPerRound.
func NewFedCSSelector(devs []*device.Device, ch wireless.Channel, modelBits, deadlineSec float64, steps int) *FedCSSelector {
	if deadlineSec <= 0 {
		panic(fmt.Sprintf("selection: FedCS deadline %g must be positive", deadlineSec))
	}
	if steps <= 0 {
		panic("selection: FedCS steps must be positive")
	}
	return &FedCSSelector{DeadlineSec: deadlineSec, devs: devs, ch: ch, bits: modelBits, steps: steps}
}

// Select returns the users for round j in a freshly allocated slice — its
// only allocation once the scratch is warm. FedCS is stateless across
// rounds: with static resource information it admits the same fast cohort
// every round, which is exactly the behaviour that caps its final accuracy.
func (f *FedCSSelector) Select(j int) []int {
	f.reqs = f.reqs[:0]
	for q, d := range f.devs {
		f.reqs = append(f.reqs, wireless.UploadRequest{
			User:        q,
			ComputeDone: float64(f.steps) * d.ComputeDelayAtMax(),
			Duration:    f.ch.UploadDelay(f.bits, d.TxPower, d.ChannelGain),
		})
	}
	slices.SortFunc(f.reqs, compareTotalDelay)
	// Greedy admission: the cohort is the longest prefix of that order
	// whose estimated TDMA completion time stays within the deadline; the
	// fastest user is admitted regardless. A longer prefix never finishes
	// earlier — each upload starts at max(compute done, channel free) and
	// ends at start + duration, and rounded max and + are monotone — so
	// the admission is a binary search over prefix lengths: O(log Q)
	// schedules where admitting one user at a time took up to Q.
	n := len(f.reqs)
	if n > 1 {
		n = 1 + sort.Search(n-1, func(i int) bool {
			var makespan float64
			f.slots, makespan = wireless.ScheduleTDMAInto(f.slots, f.reqs[:i+2])
			return makespan > f.DeadlineSec
		})
	}
	selected := make([]int, n)
	for i, r := range f.reqs[:n] {
		selected[i] = r.User
	}
	return selected
}

// MaxFreqPolicy runs every selected device at its maximum frequency — the
// no-DVFS baseline used by Classic FL and FedCS.
func MaxFreqPolicy(selected []*device.Device) []float64 {
	return sim.MaxFrequencies(selected)
}

// FEDLFreqPolicy returns the closed-form per-user frequency of Tran et al.:
// each user independently minimizes (α/2)·π|D|·f² + K·π|D|/f, a weighted sum
// of compute energy and delay, giving f* = (K/α)^{1/3}, clamped to the
// device range. K trades energy (small K) against latency (large K).
type FEDLFreqPolicy struct {
	// K is the delay weight in joules per second of compute.
	K float64
}

// Frequencies implements the policy.
func (p FEDLFreqPolicy) Frequencies(selected []*device.Device) []float64 {
	out := make([]float64, len(selected))
	for i, d := range selected {
		f := math.Cbrt(p.K / d.Kappa)
		out[i] = d.ClampFreq(f)
	}
	return out
}

// NewClassicFL composes the Classic FL baseline: random selection at
// maximum frequency.
func NewClassicFL(devs []*device.Device, fraction float64, rng *rand.Rand) fl.Planner {
	sel := NewRandomSelector(len(devs), fraction, rng)
	return &fl.Composed{
		Label:       "ClassicFL",
		Devices:     devs,
		Select:      sel.Select,
		Frequencies: MaxFreqPolicy,
	}
}

// NewFedCS composes the FedCS baseline: greedy deadline packing at maximum
// frequency.
func NewFedCS(devs []*device.Device, ch wireless.Channel, modelBits, deadlineSec float64, steps int) fl.Planner {
	sel := NewFedCSSelector(devs, ch, modelBits, deadlineSec, steps)
	return &fl.Composed{
		Label:       "FedCS",
		Devices:     devs,
		Select:      sel.Select,
		Frequencies: MaxFreqPolicy,
	}
}

// NewFEDL composes the FEDL baseline: random selection (the paper notes
// FEDL shares Classic FL's selection and therefore its accuracy curve) with
// the closed-form energy/delay-balancing frequency.
func NewFEDL(devs []*device.Device, fraction, k float64, rng *rand.Rand) fl.Planner {
	sel := NewRandomSelector(len(devs), fraction, rng)
	pol := FEDLFreqPolicy{K: k}
	return &fl.Composed{
		Label:       "FEDL",
		Devices:     devs,
		Select:      sel.Select,
		Frequencies: pol.Frequencies,
	}
}

// HELCFLLossAware is the loss-aware HELCFL extension: Algorithm 2's
// greedy-decay selection augmented with an Oort-style statistical-utility
// bonus (see core.LossAwareScheduler), plus Algorithm 3 frequencies. It
// implements fl.Observer to receive per-round loss feedback.
type HELCFLLossAware struct {
	sched *core.LossAwareScheduler
	ch    wireless.Channel
	bits  float64
}

// NewHELCFLLossAware builds the extension with statistical weight lambda.
func NewHELCFLLossAware(devs []*device.Device, ch wireless.Channel, modelBits float64, params core.Params, lambda float64) (*HELCFLLossAware, error) {
	base, err := core.NewScheduler(devs, ch, modelBits, params)
	if err != nil {
		return nil, err
	}
	la, err := core.NewLossAwareScheduler(base, lambda)
	if err != nil {
		return nil, err
	}
	return &HELCFLLossAware{sched: la, ch: ch, bits: modelBits}, nil
}

// Name implements fl.Planner.
func (h *HELCFLLossAware) Name() string { return "HELCFL-lossaware" }

// PlanRound implements fl.Planner. Frequencies come from the scheduler's
// SoA Algorithm 3, bit-identical to the AoS core.FrequencyPlan it replaced
// (fleet positions are device IDs in every catalog here).
func (h *HELCFLLossAware) PlanRound(j int) ([]int, []float64) {
	sel := h.sched.SelectRound()
	return sel, h.sched.FrequencyPlanSelected(sel, h.ch, h.bits)
}

// ObserveRound implements fl.Observer.
func (h *HELCFLLossAware) ObserveRound(j int, selected []int, losses []float64) {
	h.sched.ObserveRound(j, selected, losses)
}

// SelectionDetail implements fl.DecisionDetailer over the loss-augmented
// utilities.
func (h *HELCFLLossAware) SelectionDetail() ([]float64, []int) {
	return h.sched.LastUtilities(), h.sched.Appearances()
}

// ExportState implements fl.StatefulPlanner: decay state plus loss memory.
func (h *HELCFLLossAware) ExportState() ([]byte, error) {
	return gobEncode(h.sched.ExportState())
}

// ImportState implements fl.StatefulPlanner.
func (h *HELCFLLossAware) ImportState(raw []byte) error {
	var st core.LossAwareState
	if err := gobDecode(raw, &st); err != nil {
		return err
	}
	return h.sched.ImportState(st)
}

// gobEncode/gobDecode are the planner-state wire helpers.
func gobEncode(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("selection: encode planner state: %w", err)
	}
	return buf.Bytes(), nil
}

func gobDecode(raw []byte, v interface{}) error {
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(v); err != nil {
		return fmt.Errorf("selection: decode planner state: %w", err)
	}
	return nil
}
