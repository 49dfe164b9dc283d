package core

import (
	"fmt"
	"math"
)

// LossAwareScheduler extends the HELCFL utility (Eq. 20) with a statistical
// term in the spirit of Oort (Lai et al., OSDI'21): users whose last local
// training loss was high carry more useful gradient signal and receive a
// utility bonus,
//
//	u_q = η^{α_q} · (1 + λ·L̂_q) / (T_q^cal + T_q^com),
//
// where L̂_q is the user's last observed local loss normalized by the
// current fleet mean (1 for never-observed users). With λ = 0 this is
// exactly the paper's scheduler. This is an extension beyond the paper,
// exercised by the "lossaware" ablation.
type LossAwareScheduler struct {
	*Scheduler
	// Lambda weights the statistical term; 0 disables it.
	Lambda float64

	lastLoss []float64
	seen     []bool
}

// NewLossAwareScheduler wraps a scheduler with loss feedback.
func NewLossAwareScheduler(s *Scheduler, lambda float64) (*LossAwareScheduler, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("core: negative loss weight %g", lambda)
	}
	return &LossAwareScheduler{
		Scheduler: s,
		Lambda:    lambda,
		lastLoss:  make([]float64, s.NumUsers()),
		seen:      make([]bool, s.NumUsers()),
	}, nil
}

// ObserveRound records the local losses reported by the selected users of
// round j — the feedback channel the FL engine drives.
func (l *LossAwareScheduler) ObserveRound(j int, selected []int, losses []float64) {
	if len(selected) != len(losses) {
		panic(fmt.Sprintf("core: %d selected but %d losses", len(selected), len(losses)))
	}
	for i, q := range selected {
		if q < 0 || q >= len(l.lastLoss) {
			panic(fmt.Sprintf("core: observed user %d outside fleet", q))
		}
		if math.IsNaN(losses[i]) || math.IsInf(losses[i], 0) || losses[i] < 0 {
			continue // defensive: ignore degenerate reports
		}
		l.lastLoss[q] = losses[i]
		l.seen[q] = true
	}
}

// meanLoss returns the fleet mean of the last observed losses, in one
// pass over the fleet; ok is false when no user has reported a loss or
// every report is zero, which makes every bonus the neutral 1 + λ.
func (l *LossAwareScheduler) meanLoss() (mean float64, ok bool) {
	n := 0
	for i, s := range l.seen {
		if s {
			mean += l.lastLoss[i]
			n++
		}
	}
	if n == 0 || mean == 0 {
		return 0, false
	}
	return mean / float64(n), true
}

// lossBonus returns 1 + λ·L̂_q for the fleet mean from meanLoss.
func (l *LossAwareScheduler) lossBonus(q int, mean float64, ok bool) float64 {
	if l.Lambda == 0 || !l.seen[q] || !ok {
		return 1 + l.Lambda // unseen users get the mean bonus (L̂ = 1)
	}
	return 1 + l.Lambda*l.lastLoss[q]/mean
}

// SelectRound is Algorithm 2 over the augmented utility: the bonus moves
// every key each round, so it re-keys all Q users with u_q·(1 + λ·L̂_q)
// through the shared selection kernel, returning a freshly allocated index
// slice.
func (l *LossAwareScheduler) SelectRound() []int {
	mean, ok := l.meanLoss()
	l.sizeOrder()
	for q := range l.lastUtil {
		l.lastUtil[q] = l.Scheduler.Utility(q) * l.lossBonus(q, mean, ok)
	}
	l.ordered = false // keyed by the bonus, not by Eq. (20) alone
	return l.selectKeyed(make([]int, 0, l.NumSelect()), l.NumUsers())
}
