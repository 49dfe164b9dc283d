// Package core implements the paper's primary contribution: the HELCFL
// scheduler. It contains the utility function of Eq. (20), the
// utility-driven greedy-decay user selection of Algorithm 2, and the
// DVFS-enabled operating-frequency determination of Algorithm 3.
//
// The scheduler's state is structure-of-arrays (device.Fleet plus parallel
// delay/decay columns). Algorithm 2 keeps the whole fleet sorted by its
// selection key and, each round, re-keys only the previous cohort — the
// only users whose Eq. (20) utility moved — and merges them back, so a
// round costs O(N log Q) comparisons rather than a sweep of all Q
// utilities. Both algorithms order users with the radix kernel
// (internal/radix) — no comparison sort but over equal keys, no allocation
// once warm — so a single round plan scales to Q=10⁶ users (see
// docs/SCALE.md); the naive references (SelectRoundNaive and the
// comparators in the package's tests, the AoS FrequencyPlan) pin the fast
// paths bit-identical to the paper's literal algorithms.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"helcfl/internal/device"
	"helcfl/internal/obs/span"
	"helcfl/internal/radix"
	"helcfl/internal/wireless"
)

// Params configures the HELCFL scheduler.
type Params struct {
	// Eta is the decay coefficient η ∈ (0, 1) of Eq. (20).
	Eta float64
	// Fraction is the user selection fraction C; N = max(⌊Q·C⌋, 1) users
	// are selected each round (see CohortSize).
	Fraction float64
	// StepsPerRound is the number of local full-batch GD passes per round
	// (the paper's Eq. (3) does exactly 1). It scales compute delay.
	StepsPerRound int
	// Clamp applies constraint (15) to Algorithm 3's frequencies. The
	// printed algorithm omits the projection; disabling this reproduces the
	// literal pseudocode for the ablation study.
	Clamp bool
}

// DefaultParams returns the paper's experimental setting: η = 0.9, C = 0.1,
// one local GD step, clamped frequencies.
func DefaultParams() Params {
	return Params{Eta: 0.9, Fraction: 0.1, StepsPerRound: 1, Clamp: true}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.Eta <= 0 || p.Eta >= 1 {
		return fmt.Errorf("core: decay coefficient η = %g outside (0,1)", p.Eta)
	}
	if p.Fraction <= 0 || p.Fraction > 1 {
		return fmt.Errorf("core: selection fraction C = %g outside (0,1]", p.Fraction)
	}
	if p.StepsPerRound <= 0 {
		return fmt.Errorf("core: non-positive steps per round %d", p.StepsPerRound)
	}
	return nil
}

// Scheduler is the FLCC-side state of Algorithm 2: the per-user static
// delays measured in the initialization phase and the appearance counters
// α_q that drive utility decay. All per-user state lives in parallel
// slices over the fleet (structure-of-arrays), and every per-round buffer
// is reused, so a steady-state PlanRoundInto allocates nothing.
type Scheduler struct {
	params Params
	fleet  *device.Fleet

	// tcalMax[q] is T_q^cal at f_q^max (Algorithm 2, line 3).
	tcalMax []float64
	// tcom[q] is T_q^com (Algorithm 2, line 4) on channel ch for a payload
	// of modelBits; Algorithm 3 reuses it when planned on the same link.
	tcom      []float64
	ch        wireless.Channel
	modelBits float64
	// alpha[q] counts how often user q has been selected (Eq. 20).
	alpha []int
	// etaPow[q] memoizes η^{α_q}: multiplied by η at each selection instead
	// of recomputed by an O(α) loop every utility evaluation. The product
	// performs the same multiplication sequence as the retained pow loop,
	// so the two are bit-identical at any α (pinned by TestEtaPowMemo).
	etaPow []float64
	// lastUtil[q] is the utility of user q computed at the most recent
	// SelectRound, before that round's decay increments — the decision
	// state the observability layer reports. Reused across rounds.
	lastUtil []float64

	// order holds every fleet index sorted by the selection key (lastUtil
	// descending, then index ascending); each round's cohort is its first N
	// entries (see selectKeyed); its spare capacity (Q more entries) is the
	// build's radix ping-pong buffer. ordered reports that every key but
	// those of order[:N], the previous cohort's, is the current Eq. (20)
	// utility; it is false before the first round, after ImportState, and
	// after a loss-aware round keyed the order by another utility.
	order       []int32
	ordered     bool
	keysUpdated int

	// ranks holds a cohort-sized radix order and its ping-pong buffer: the
	// re-keyed cohort, Algorithm 3's line 1.
	ranks []ranked

	// tr/trParent attribute PlanRound's two phases (Algorithm 2 selection,
	// Algorithm 3 DVFS solve) to the caller's span trace; nil/zero when
	// tracing is off.
	tr       *span.Recorder
	trParent span.Ref
}

// SetTrace installs the span recorder and parent ref under which the next
// PlanRound records its selection and DVFS phases. Call with nil to stop
// tracing.
func (s *Scheduler) SetTrace(rec *span.Recorder, parent span.Ref) {
	s.tr, s.trParent = rec, parent
}

// NewScheduler runs the initialization of Algorithm 2 (lines 1–7) over an
// AoS device slice: it validates the fleet, snapshots it into SoA form, and
// derives the static delay columns. modelBits is C_model for Eq. (7).
func NewScheduler(devs []*device.Device, ch wireless.Channel, modelBits float64, params Params) (*Scheduler, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(devs) == 0 {
		return nil, fmt.Errorf("core: no devices")
	}
	for _, d := range devs {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		if d.NumSamples <= 0 {
			return nil, fmt.Errorf("core: device %d has no local data", d.ID)
		}
	}
	return newFleetScheduler(device.FleetOf(devs), ch, modelBits, params)
}

// NewFleetScheduler is NewScheduler directly on SoA fleet state — the
// million-user path, skipping the AoS detour entirely.
func NewFleetScheduler(fleet *device.Fleet, ch wireless.Channel, modelBits float64, params Params) (*Scheduler, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if fleet == nil || fleet.Len() == 0 {
		return nil, fmt.Errorf("core: no devices")
	}
	if err := fleet.Validate(); err != nil {
		return nil, err
	}
	for q := 0; q < fleet.Len(); q++ {
		if fleet.NumSamples[q] <= 0 {
			return nil, fmt.Errorf("core: device %d has no local data", q)
		}
	}
	return newFleetScheduler(fleet, ch, modelBits, params)
}

// newFleetScheduler derives the static delay columns; the fleet is already
// validated. tcom fills through the vectorized Eq. (7) kernel; tcalMax is
// the same expression per index as the AoS loop it replaced.
func newFleetScheduler(fleet *device.Fleet, ch wireless.Channel, modelBits float64, params Params) (*Scheduler, error) {
	q := fleet.Len()
	s := &Scheduler{
		params:    params,
		fleet:     fleet,
		tcalMax:   make([]float64, q),
		tcom:      make([]float64, q),
		ch:        ch,
		modelBits: modelBits,
		alpha:     make([]int, q),
		etaPow:    make([]float64, q),
	}
	scale := float64(params.StepsPerRound)
	for i := 0; i < q; i++ {
		s.tcalMax[i] = scale * fleet.ComputeDelayAtMax(i)
		s.etaPow[i] = 1
	}
	ch.UploadDelayInto(s.tcom, modelBits, fleet.TxPower, fleet.ChannelGain)
	return s, nil
}

// Fleet exposes the scheduler's SoA state (read-only by convention).
func (s *Scheduler) Fleet() *device.Fleet { return s.fleet }

// NumUsers returns Q, the fleet size.
func (s *Scheduler) NumUsers() int { return s.fleet.Len() }

// Utility returns u_q = η^{α_q} / (T_q^cal + T_q^com), Eq. (20), for user q
// at the current appearance count.
func (s *Scheduler) Utility(q int) float64 {
	return s.etaPow[q] / (s.tcalMax[q] + s.tcom[q])
}

// pow computes η^a for a non-negative integer a without the math.Pow
// rounding surprises for small exponents. ImportState rebuilds the etaPow
// memo with it, and it is the reference the incremental memoization is
// pinned bit-identical to (TestEtaPowMemo); the per-round hot path does
// not call it.
func pow(eta float64, a int) float64 {
	out := 1.0
	for ; a > 0; a-- {
		out *= eta
	}
	return out
}

// markSelected records one Algorithm 2 selection of user q: the appearance
// counter and the memoized η^{α_q} advance together (the only way etaPow
// stays coherent — every selection path, including the loss-aware
// extension's, must route through here).
func (s *Scheduler) markSelected(q int) {
	s.alpha[q]++
	s.etaPow[q] *= s.params.Eta
}

// Appearances returns a copy of the appearance counters α.
func (s *Scheduler) Appearances() []int {
	return append([]int(nil), s.alpha...)
}

// LastUtilities returns a copy of the fleet-wide utility vector computed at
// the most recent SelectRound, or nil before the first round.
func (s *Scheduler) LastUtilities() []float64 {
	return append([]float64(nil), s.lastUtil...)
}

// NumSelect returns N = max(⌊Q·C⌋, 1), the per-round selection count.
func (s *Scheduler) NumSelect() int {
	return CohortSize(s.fleet.Len(), s.params.Fraction)
}

// CohortSize returns N = max(⌊Q·C⌋, 1) for a fleet of q users at selection
// fraction c. A product within a relative 10⁻¹² of an integer counts as
// that integer, so a fraction binary floating point stores just below its
// decimal value keeps its exact floor: CohortSize(90, 0.7) is 63, where
// int(90 * 0.7) truncates 62.99999999999999 to 62.
func CohortSize(q int, c float64) int {
	p := float64(q) * c
	n := math.Round(p)
	if n-p > 1e-12*n {
		n = math.Floor(p)
	}
	return max(int(n), 1)
}

// LastHeapPushes reports how many selection keys the most recent selection
// recomputed — Q on a round that (re)built the selection order (the first,
// the first after ImportState, every loss-aware round), N otherwise. It is
// the work metric the sched.select span exports as heap.pushes.
func (s *Scheduler) LastHeapPushes() int { return s.keysUpdated }

// SelectRound runs the selection of Algorithm 2 (lines 8–19) and returns a
// freshly allocated index slice in selection (descending utility) order —
// callers such as the FL engine retain it across rounds. The hot-path form
// is SelectRoundAppend.
func (s *Scheduler) SelectRound() []int {
	return s.SelectRoundAppend(make([]int, 0, s.NumSelect()))
}

// SelectRoundAppend is SelectRound appending into dst (reusing its backing
// array) — the zero-steady-state-allocation form.
func (s *Scheduler) SelectRoundAppend(dst []int) []int {
	return s.selectAppend(dst[:0])
}

// selectAppend is Algorithm 2's selection over the Eq. (20) utilities. Their
// denominators are fixed at initialization and only the previous cohort's
// η^{α_q} moved since the last round, so once the order is built only those
// N keys — order[:N] — are recomputed; an unbuilt order re-keys all Q.
func (s *Scheduler) selectAppend(dst []int) []int {
	k := s.NumSelect()
	if !s.ordered {
		s.sizeOrder()
		k = len(s.order)
	}
	for _, q := range s.order[:k] {
		s.lastUtil[q] = s.etaPow[q] / (s.tcalMax[q] + s.tcom[q])
	}
	s.ordered = true
	return s.selectKeyed(dst, k)
}

// sizeOrder sizes lastUtil and order to the fleet. A new order is the
// identity permutation; from then on order always holds some permutation
// of the fleet, so a full re-key reaches every user through it.
func (s *Scheduler) sizeOrder() {
	q := s.fleet.Len()
	if len(s.lastUtil) != q {
		s.lastUtil = make([]float64, q)
	}
	if len(s.order) != q {
		s.order = make([]int32, q, 2*q)
		for i := range s.order {
			s.order[i] = int32(i)
		}
	}
}

// ranked is one entry of a cohort-sized radix order: its key bits, read
// from a column once, and a fleet index or cohort position.
type ranked struct {
	key uint64
	i   int32
}

func rankKey(r ranked) uint64 { return r.key }

// rankBuf returns the cohort order's n entries and their ping-pong buffer.
func (s *Scheduler) rankBuf(n int) (order, pingPong []ranked) {
	if cap(s.ranks) < 2*n {
		s.ranks = make([]ranked, 2*n)
	}
	return s.ranks[:n], s.ranks[n : 2*n]
}

// selectKeyed is the selection kernel shared by the paper's Eq. (20)
// utility and the loss-aware extension's. The keys of order[:k] were just
// rewritten in lastUtil; order[k:] is sorted under unchanged keys. The key
// is utility descending — ^radix.Key ascending, as every utility is finite
// and ≥ 0 — then index ascending. A full re-key (k = Q) radix-orders the
// identity permutation, whose stable passes keep ties in index order;
// otherwise the prefix is radix-ordered in the rank buffer and merged
// forward into the tail, galloping to each insertion point (O(k log(Q/k))
// comparisons plus one memmove pass). order[:N] is the cohort: the key is
// a total order, so that prefix is exactly the naive repeated argmax
// sequence (SelectRoundNaive, in scheduler_equiv_test.go), whose scan keeps
// the lower index on a bitwise-equal utility; the property tests there pin
// this under random fleets and forced ties.
func (s *Scheduler) selectKeyed(dst []int, k int) []int {
	util, order := s.lastUtil, s.order
	key := func(q int32) uint64 { return ^radix.Key(util[q]) }
	if k == len(order) {
		for i := range order {
			order[i] = int32(i)
		}
		radix.Sort(order, order[k:2*k], key, nil)
	} else {
		keyed, pingPong := s.rankBuf(k)
		for i, q := range order[:k] {
			keyed[i] = ranked{key(q), q}
		}
		radix.Sort(keyed, pingPong, rankKey, func(a, b ranked) int { return cmp.Compare(a.i, b.i) })
		w, j := 0, k // write position in order, read position in the tail
		for _, e := range keyed {
			after := func(i int) bool { // order[i] ranks after e
				kq := key(order[i])
				return kq > e.key || kq == e.key && order[i] > e.i
			}
			// Gallop to bracket the first tail entry ranking after e, then
			// bisect the bracket.
			lo, hi := j, j
			for step := 1; hi < len(order) && !after(hi); step *= 2 {
				lo, hi = hi+1, hi+step
			}
			hi = min(hi, len(order))
			end := lo + sort.Search(hi-lo, func(i int) bool { return after(lo + i) })
			w += copy(order[w:], order[j:end]) // w trails j: a memmove
			order[w] = e.i
			w, j = w+1, end
		}
	}
	s.keysUpdated = k
	for _, q := range order[:s.NumSelect()] {
		dst = append(dst, int(q))
		s.markSelected(int(q)) // utility decay for future rounds (line 18)
	}
	return dst
}

// PlanRound runs one full FLCC scheduling decision: Algorithm 2 selection
// followed by Algorithm 3 frequency determination. The returned slices are
// freshly allocated (the FL engine retains them in its round records); the
// zero-allocation form is PlanRoundInto.
func (s *Scheduler) PlanRound(ch wireless.Channel, modelBits float64) ([]int, []float64) {
	n := s.NumSelect()
	return s.PlanRoundInto(make([]int, 0, n), make([]float64, n), ch, modelBits)
}

// PlanRoundInto is PlanRound reusing caller-owned result buffers — the
// zero-steady-state-allocation form. selected and freqs are overwritten
// (regrown if needed) and returned re-sliced; unlike PlanRound, the results
// alias the arguments, so callers retaining plans across rounds must copy
// them.
func (s *Scheduler) PlanRoundInto(selected []int, freqs []float64, ch wireless.Channel, modelBits float64) ([]int, []float64) {
	selSp := s.tr.Start(s.trParent, "sched.select")
	selected = s.selectAppend(selected[:0])
	selSp.SetInt("fleet.size", int64(s.fleet.Len()))
	selSp.SetInt("heap.pushes", int64(s.keysUpdated))
	selSp.End()
	dvfsSp := s.tr.Start(s.trParent, "sched.dvfs")
	if cap(freqs) < len(selected) {
		freqs = make([]float64, len(selected))
	}
	// frequencyPlanInto orders by ascending compute delay internally but
	// writes frequencies aligned with its input order, so selected and
	// freqs stay aligned here.
	freqs = freqs[:len(selected)]
	s.frequencyPlanInto(freqs, selected, ch, modelBits)
	dvfsSp.End()
	return selected, freqs
}

// FrequencyPlanSelected runs Algorithm 3 over the scheduler's SoA state for
// the given fleet indices, returning a fresh frequency slice aligned with
// selected. It is bit-identical to the retained AoS FrequencyPlan on the
// corresponding device slice (ties broken by fleet index == device ID);
// the differential test pins this.
func (s *Scheduler) FrequencyPlanSelected(selected []int, ch wireless.Channel, modelBits float64) []float64 {
	if len(selected) == 0 {
		return nil
	}
	freqs := make([]float64, len(selected))
	s.frequencyPlanInto(freqs, selected, ch, modelBits)
	return freqs
}

// frequencyPlanInto is Algorithm 3 on SoA state writing into freqs (length
// len(selected)), allocation-free once the scheduler's scratch is warm. On
// the construction's channel and payload (same bits) it reads each upload
// delay from tcom, the same Eq. (7) expression, instead of recomputing it.
func (s *Scheduler) frequencyPlanInto(freqs []float64, selected []int, ch wireless.Channel, modelBits float64) {
	n := len(selected)
	if n == 0 {
		return
	}
	scale := float64(s.params.StepsPerRound)
	fleet, tcal := s.fleet, s.tcalMax
	b := math.Float64bits
	cached := b(ch.BandwidthHz) == b(s.ch.BandwidthHz) && b(ch.NoisePower) == b(s.ch.NoisePower) &&
		b(modelBits) == b(s.modelBits)
	upload := func(q int) float64 {
		if cached {
			return s.tcom[q]
		}
		return ch.UploadDelay(modelBits, fleet.TxPower[q], fleet.ChannelGain[q])
	}
	// Line 1: cohort positions in ascending order of model-update delay at
	// max frequency (tcalMax), equal delays by fleet index.
	order, pingPong := s.rankBuf(n)
	for i, q := range selected {
		order[i] = ranked{radix.Key(tcal[q]), int32(i)}
	}
	radix.Sort(order, pingPong, rankKey, func(a, b ranked) int { return cmp.Compare(selected[a.i], selected[b.i]) })

	// Lines 3–4: the first user has no slack and runs at maximum frequency.
	first := selected[order[0].i]
	freqs[order[0].i] = fleet.FMax[first]
	// prevEnd is T_q^j of the previous user: the time its upload completes,
	// assuming the chain starts at round time zero.
	prevEnd := tcal[first] + upload(first)

	clamp := s.params.Clamp
	for k, r := range order[1:] {
		pos, q := r.i, selected[r.i]
		if q == selected[order[k].i] { // a duplicate lands beside its twin
			panic(fmt.Sprintf("core: user %d selected twice", q))
		}
		// Line 9: stretch this user's computation to fill the previous
		// user's total delay: f = π|D| / T_prev (Eq. (4) inverted).
		f := scale * fleet.TotalCycles(q) / prevEnd
		if clamp {
			// Project onto [f_min, f_max] (constraint 15) and, when the
			// device exposes discrete DVFS levels, snap UP to the next
			// operating point so the chain time is never missed.
			f = fleet.SnapFreq(q, f)
		}
		freqs[pos] = f
		// Line 8 for the next iteration: this user's total delay at the
		// determined frequency. With clamping, the realized upload start is
		// delayed to when the channel frees (compute may finish early after
		// an f_min clamp) or pushed later (an f_max clamp cannot meet
		// prevEnd), so chain on the realized completion time.
		computeDone := scale * fleet.ComputeDelay(q, f)
		start := computeDone
		if clamp && prevEnd > start {
			start = prevEnd
		}
		prevEnd = start + upload(q)
	}
}

// FrequencyPlan implements Algorithm 3 over an AoS device slice: determine
// the CPU operating frequencies of the selected users by reclaiming TDMA
// slack. The users are sorted by compute delay at maximum frequency; the
// first runs at f_max and each subsequent user is slowed so its local
// update completes exactly when the previous user's upload finishes.
//
// This is the retained naive reference the SoA frequencyPlanInto is proven
// bit-identical against (and the path baselines without a Scheduler still
// use). The returned slice aligns with devs (input order). steps scales
// compute delay as in Params.StepsPerRound. If clamp is true the
// frequencies are projected onto [f_min, f_max] (constraint (15)) and the
// chaining uses the realized post-clamp completion times; if false the
// function returns the literal pseudocode values, which may violate the
// device's range.
func FrequencyPlan(devs []*device.Device, ch wireless.Channel, modelBits float64, steps int, clamp bool) []float64 {
	if len(devs) == 0 {
		return nil
	}
	if steps <= 0 {
		panic(fmt.Sprintf("core: non-positive steps %d", steps))
	}
	scale := float64(steps)

	// Line 1: ascending order of model-update delay at max frequency.
	order := make([]int, len(devs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		da := scale * devs[a].ComputeDelayAtMax()
		db := scale * devs[b].ComputeDelayAtMax()
		switch {
		case da < db:
			return -1
		case da > db:
			return 1
		}
		return cmp.Compare(devs[a].ID, devs[b].ID)
	})

	freqs := make([]float64, len(devs))
	// Lines 3–4: the first user has no slack and runs at maximum frequency.
	first := devs[order[0]]
	freqs[order[0]] = first.FMax
	// prevEnd is T_q^j of the previous user: the time its upload completes,
	// assuming the chain starts at round time zero.
	prevEnd := scale*first.ComputeDelayAtMax() +
		ch.UploadDelay(modelBits, first.TxPower, first.ChannelGain)

	for k := 1; k < len(order); k++ {
		d := devs[order[k]]
		// Line 9: stretch this user's computation to fill the previous
		// user's total delay: f = π|D| / T_prev (Eq. (4) inverted).
		f := scale * d.TotalCycles() / prevEnd
		if clamp {
			// Project onto [f_min, f_max] (constraint 15) and, when the
			// device exposes discrete DVFS levels, snap UP to the next
			// operating point so the chain time is never missed.
			f = d.SnapFreq(f)
		}
		freqs[order[k]] = f
		// Line 8 for the next iteration: this user's total delay at the
		// determined frequency. With clamping, the realized upload start is
		// delayed to when the channel frees (compute may finish early after
		// an f_min clamp) or pushed later (an f_max clamp cannot meet
		// prevEnd), so chain on the realized completion time.
		computeDone := scale * d.ComputeDelay(f)
		start := computeDone
		if clamp && prevEnd > start {
			start = prevEnd
		}
		prevEnd = start + ch.UploadDelay(modelBits, d.TxPower, d.ChannelGain)
	}
	return freqs
}
