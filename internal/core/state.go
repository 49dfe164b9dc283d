package core

import "fmt"

// SchedulerState is the cross-round mutable state of Algorithm 2: the α_q
// appearance counters that drive Eq. (20)'s η^{α_q} decay, plus the last
// reported utility vector (observability state, restored so a resumed
// campaign reports identically). The static initialization-phase delays are
// deliberately excluded — they are re-derived from the device fleet, which
// the caller persists separately.
type SchedulerState struct {
	Alpha    []int
	LastUtil []float64
}

// ExportState returns a deep copy of the scheduler's mutable state, taken
// at a round boundary (after the most recent SelectRound).
func (s *Scheduler) ExportState() SchedulerState {
	return SchedulerState{
		Alpha:    append([]int(nil), s.alpha...),
		LastUtil: append([]float64(nil), s.lastUtil...),
	}
}

// ImportState overwrites the scheduler's mutable state from a previously
// exported snapshot. The fleet shape must match; a scheduler restored this
// way makes bit-identical selections to one that never restarted.
func (s *Scheduler) ImportState(st SchedulerState) error {
	if len(st.Alpha) != s.NumUsers() {
		return fmt.Errorf("core: state has %d appearance counters for fleet of %d", len(st.Alpha), s.NumUsers())
	}
	for q, a := range st.Alpha {
		if a < 0 {
			return fmt.Errorf("core: negative appearance counter %d for user %d", a, q)
		}
	}
	if st.LastUtil != nil && len(st.LastUtil) != s.NumUsers() {
		return fmt.Errorf("core: state has %d utilities for fleet of %d", len(st.LastUtil), s.NumUsers())
	}
	s.alpha = append([]int(nil), st.Alpha...)
	s.lastUtil = append([]float64(nil), st.LastUtil...)
	s.ordered = false // the next selection re-keys and re-sorts all Q users
	// Rebuild the η^{α_q} memo from the restored counters with the pow
	// reference — the same multiplication sequence the incremental updates
	// perform, so a restored scheduler stays bit-identical to one that
	// never restarted.
	for q, a := range s.alpha {
		s.etaPow[q] = pow(s.params.Eta, a)
	}
	return nil
}

// LossAwareState extends SchedulerState with the loss-feedback memory of
// the loss-aware extension.
type LossAwareState struct {
	Base     SchedulerState
	LastLoss []float64
	Seen     []bool
}

// ExportState returns a deep copy of the loss-aware scheduler's mutable
// state (decay counters plus loss feedback).
func (l *LossAwareScheduler) ExportState() LossAwareState {
	return LossAwareState{
		Base:     l.Scheduler.ExportState(),
		LastLoss: append([]float64(nil), l.lastLoss...),
		Seen:     append([]bool(nil), l.seen...),
	}
}

// ImportState restores a previously exported loss-aware snapshot.
func (l *LossAwareScheduler) ImportState(st LossAwareState) error {
	if len(st.LastLoss) != l.NumUsers() || len(st.Seen) != l.NumUsers() {
		return fmt.Errorf("core: loss state sized %d/%d for fleet of %d", len(st.LastLoss), len(st.Seen), l.NumUsers())
	}
	if err := l.Scheduler.ImportState(st.Base); err != nil {
		return err
	}
	l.lastLoss = append([]float64(nil), st.LastLoss...)
	l.seen = append([]bool(nil), st.Seen...)
	return nil
}
