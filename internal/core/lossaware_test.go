package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"helcfl/internal/wireless"
)

// lossBonusNaive is the pre-hoist reference bonus: 1 + λ·L̂_q with the
// fleet-mean loss recomputed for every user.
func (l *LossAwareScheduler) lossBonusNaive(q int) float64 {
	if l.Lambda == 0 || !l.seen[q] {
		return 1 + l.Lambda
	}
	mean := 0.0
	n := 0
	for i, s := range l.seen {
		if s {
			mean += l.lastLoss[i]
			n++
		}
	}
	if n == 0 || mean == 0 {
		return 1 + l.Lambda
	}
	mean /= float64(n)
	return 1 + l.Lambda*l.lastLoss[q]/mean
}

// SelectRoundNaive is the reference selection: the literal O(Q·N) repeated
// argmax of Algorithm 2 over the loss-augmented utility, ties broken by
// index. TestLossAwareSelectMatchesNaive runs it against SelectRound.
func (l *LossAwareScheduler) SelectRoundNaive() []int {
	n := l.NumSelect()
	users := l.NumUsers()
	utilities := make([]float64, users)
	for q := 0; q < users; q++ {
		utilities[q] = l.Scheduler.Utility(q) * l.lossBonusNaive(q)
	}
	l.lastUtil = utilities
	selectable := make([]bool, users)
	for q := range selectable {
		selectable[q] = true
	}
	selected := make([]int, 0, n)
	for len(selected) < n {
		best := -1
		for q := 0; q < users; q++ {
			if !selectable[q] {
				continue
			}
			if best == -1 || utilities[q] > utilities[best] {
				best = q
			}
		}
		if best == -1 {
			break
		}
		selectable[best] = false
		selected = append(selected, best)
		l.markSelected(best)
	}
	return selected
}

func newLossAware(t *testing.T, n int, lambda float64) *LossAwareScheduler {
	t.Helper()
	devs := fleet(n, 21)
	base, err := NewScheduler(devs, wireless.DefaultChannel(), testModelBits, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	la, err := NewLossAwareScheduler(base, lambda)
	if err != nil {
		t.Fatal(err)
	}
	return la
}

func TestLossAwareZeroLambdaMatchesBase(t *testing.T) {
	la := newLossAware(t, 20, 0)
	mean, ok := la.meanLoss()
	for q := 0; q < 20; q++ {
		if la.lossBonus(q, mean, ok) != 1 {
			t.Fatalf("λ=0 utility differs for user %d", q)
		}
	}
	// Selection identical to the base scheduler's.
	devs := fleet(20, 21)
	base, err := NewScheduler(devs, wireless.DefaultChannel(), testModelBits, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		a := la.SelectRound()
		b := base.SelectRound()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d: λ=0 selection differs", r)
			}
		}
	}
}

func TestLossAwareBonusRaisesHighLossUsers(t *testing.T) {
	la := newLossAware(t, 10, 1.0)
	sel := []int{0, 1}
	la.ObserveRound(0, sel, []float64{4.0, 0.5}) // user 0 struggling
	mean, ok := la.meanLoss()
	u0 := la.lossBonus(0, mean, ok)
	u1 := la.lossBonus(1, mean, ok)
	if u0 <= u1 {
		t.Fatalf("high-loss user bonus %g not above low-loss %g", u0, u1)
	}
	// Unseen users get the neutral mean bonus 1+λ.
	if got := la.lossBonus(5, mean, ok); math.Abs(got-2) > 1e-12 {
		t.Fatalf("unseen bonus = %g, want 2", got)
	}
}

func TestLossAwareSelectionPrefersStrugglingUser(t *testing.T) {
	la := newLossAware(t, 12, 2.0)
	// Make two users' static utilities comparable by observing losses that
	// strongly favour a slow user.
	first := la.SelectRound()
	losses := make([]float64, len(first))
	for i := range losses {
		losses[i] = 0.01 // everyone selected so far is nearly converged
	}
	la.ObserveRound(0, first, losses)
	// An unselected user reports (via a later selection) a huge loss.
	second := la.SelectRound()
	big := make([]float64, len(second))
	for i := range big {
		big[i] = 10
	}
	la.ObserveRound(1, second, big)
	third := la.SelectRound()
	// The high-loss cohort (second) should be favoured for reselection over
	// the near-converged first cohort, appearance decay permitting.
	inSecond := map[int]bool{}
	for _, q := range second {
		inSecond[q] = true
	}
	overlap := 0
	for _, q := range third {
		if inSecond[q] {
			overlap++
		}
	}
	if overlap == 0 {
		t.Fatal("loss bonus never favoured the struggling cohort")
	}
}

func TestLossAwareObserveValidation(t *testing.T) {
	la := newLossAware(t, 5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched lengths")
		}
	}()
	la.ObserveRound(0, []int{1, 2}, []float64{0.5})
}

func TestLossAwareIgnoresDegenerateLosses(t *testing.T) {
	la := newLossAware(t, 5, 1)
	la.ObserveRound(0, []int{1}, []float64{math.NaN()})
	if la.seen[1] {
		t.Fatal("NaN loss must be ignored")
	}
	la.ObserveRound(0, []int{1}, []float64{math.Inf(1)})
	if la.seen[1] {
		t.Fatal("Inf loss must be ignored")
	}
}

func TestLossAwareNegativeLambdaRejected(t *testing.T) {
	devs := fleet(4, 22)
	base, err := NewScheduler(devs, wireless.DefaultChannel(), testModelBits, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLossAwareScheduler(base, -1); err == nil {
		t.Fatal("negative λ must be rejected")
	}
}

// TestLossAwareSelectMatchesNaive pins the loss-aware selection — the
// shared selection kernel re-keying all Q users by the bonus-scaled
// utility — to the naive repeated argmax: across random and tie-heavy
// fleets, λ ∈ {0, 0.5, 2}, N = 1 to N = Q and 50 rounds of loss feedback
// drawn from a small value set (so bonuses tie too), both must select the
// same users in the same order and leave bit-identical α, utility vectors
// and ExportState. Every tenth round runs the embedded Eq. (20) selection
// instead, on an order the loss-aware rounds keyed by another utility.
// At round 25 both twins import a state from a third scheduler, and at
// round 40 one with a wide α spread (wideAlphaState); two fleets tie
// through denominators powers of two apart at η = 0.5 (pow2Denominators).
func TestLossAwareSelectMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []fleetCase{
		{fleet: tieFleet(60, 6)},
		{fleet: tieFleet(120, 40)},
		{randomFleet(80, 40), 0.5, pow2Denominators},
		{randomFleet(150, 41), 0.5, pow2Denominators},
	}
	for trial := 0; trial < 4; trial++ {
		cases = append(cases, fleetCase{fleet: randomFleet(20+rng.Intn(200), int64(trial))})
	}
	newLA := func(c fleetCase, fraction, lambda float64) *LossAwareScheduler {
		la, err := NewLossAwareScheduler(newCase(t, c, fraction), lambda)
		if err != nil {
			t.Fatal(err)
		}
		return la
	}
	draw := func(n int) []float64 {
		losses := make([]float64, n)
		for i := range losses {
			losses[i] = []float64{0.25, 0.5, 1, 3}[rng.Intn(4)]
		}
		return losses
	}
	for fi, c := range cases {
		f := c.fleet
		for li, lambda := range []float64{0, 0.5, 2} {
			fraction := []float64{0.001, 0.1, 0.33, 1.0}[(3*fi+li)%4]
			fast, naive, donor := newLA(c, fraction, lambda), newLA(c, fraction, lambda), newLA(c, fraction, lambda)
			for round := 0; round < 5+fi; round++ {
				sel := donor.SelectRound()
				donor.ObserveRound(round, sel, draw(len(sel)))
			}
			for round := 0; round < 50; round++ {
				what := fmt.Sprintf("fleet %d λ=%g C=%g round %d", fi, lambda, fraction, round)
				if round == 25 || round == 40 {
					st := donor.ExportState()
					if round == 40 {
						st = LossAwareState{Base: wideAlphaState(f.Len(), rng), LastLoss: st.LastLoss, Seen: st.Seen}
					}
					if err := fast.ImportState(st); err != nil {
						t.Fatal(err)
					}
					if err := naive.ImportState(st); err != nil {
						t.Fatal(err)
					}
				}
				var got, want []int
				if round%10 == 9 {
					got, want = fast.Scheduler.SelectRound(), naive.Scheduler.SelectRoundNaive()
				} else {
					got, want = fast.SelectRound(), naive.SelectRoundNaive()
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s:\nkeyed: %v\nnaive: %v", what, got, want)
				}
				if keys := fast.LastHeapPushes(); keys != f.Len() {
					t.Fatalf("%s: %d keys updated, want all %d", what, keys, f.Len())
				}
				requireSameState(t, what, fast.Scheduler, naive.Scheduler)
				requireKeyedOrder(t, what, fast.Scheduler)
				losses := draw(len(got))
				fast.ObserveRound(round, got, losses)
				naive.ObserveRound(round, want, losses)
			}
		}
	}
}
