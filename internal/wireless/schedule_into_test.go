package wireless

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// scheduleTDMAOracle is the pre-optimisation scheduler, kept here as the
// independent reference: a stable library sort on (ComputeDone, User)
// followed by the free-time sweep of Fig. 1.
func scheduleTDMAOracle(reqs []UploadRequest) ([]UploadSlot, float64) {
	order := append([]UploadRequest(nil), reqs...)
	sort.SliceStable(order, func(a, b int) bool {
		if order[a].ComputeDone != order[b].ComputeDone {
			return order[a].ComputeDone < order[b].ComputeDone
		}
		return order[a].User < order[b].User
	})
	slots := make([]UploadSlot, 0, len(order))
	free := 0.0
	for _, r := range order {
		start := r.ComputeDone
		if free > start {
			start = free
		}
		end := start + r.Duration
		slots = append(slots, UploadSlot{User: r.User, Start: start, End: end, Wait: start - r.ComputeDone})
		free = end
	}
	return slots, free
}

// requireOracleSchedule fails unless ScheduleTDMAInto(buf, reqs) equals the
// oracle's schedule bit for bit; it returns the slot buffer for reuse.
func requireOracleSchedule(t *testing.T, label string, buf []UploadSlot, reqs []UploadRequest) []UploadSlot {
	t.Helper()
	wantSlots, wantMk := scheduleTDMAOracle(reqs)
	gotSlots, gotMk := ScheduleTDMAInto(buf, reqs)
	if math.Float64bits(gotMk) != math.Float64bits(wantMk) {
		t.Fatalf("%s: makespan %g, want %g", label, gotMk, wantMk)
	}
	if len(gotSlots) != len(wantSlots) {
		t.Fatalf("%s: %d slots, want %d", label, len(gotSlots), len(wantSlots))
	}
	for i := range wantSlots {
		g, w := gotSlots[i], wantSlots[i]
		if g.User != w.User ||
			math.Float64bits(g.Start) != math.Float64bits(w.Start) ||
			math.Float64bits(g.End) != math.Float64bits(w.End) ||
			math.Float64bits(g.Wait) != math.Float64bits(w.Wait) {
			t.Fatalf("%s slot %d: got %+v, want %+v", label, i, g, w)
		}
	}
	return gotSlots
}

// tdmaRequests builds n requests whose ComputeDone values are arranged as
// named: "shuffled" (random, with exact ties and duplicate users),
// "ascending", "descending" or "equal".
func tdmaRequests(n int, arrangement string, rng *rand.Rand) []UploadRequest {
	reqs := make([]UploadRequest, n)
	for i := range reqs {
		r := UploadRequest{User: i, Duration: rng.Float64() + 0.01}
		switch arrangement {
		case "shuffled":
			r.User = rng.Intn(n)
			r.ComputeDone = float64(rng.Intn(n/2 + 1))
		case "ascending":
			r.ComputeDone = float64(i)
		case "descending":
			r.ComputeDone = float64(n - i)
		case "equal":
			r.User = n - i // the user ID alone decides the order
			r.ComputeDone = 3
		default:
			panic("unknown arrangement " + arrangement)
		}
		reqs[i] = r
	}
	return reqs
}

// TestScheduleTDMAIntoMatchesScheduleTDMA is the differential gate for the
// TDMA scheduler: across randomized request sets — including heavy
// ComputeDone ties and duplicate users, which exercise the stable
// tie-break — and across cohort-scale sets in every input arrangement, the
// schedule must be bit-identical to the stable-sort oracle above.
func TestScheduleTDMAIntoMatchesScheduleTDMA(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var buf []UploadSlot
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40) + 1
		reqs := make([]UploadRequest, n)
		for i := range reqs {
			// Coarse grid of compute-done times forces frequent exact ties.
			reqs[i] = UploadRequest{
				User:        rng.Intn(n), // duplicate users allowed
				ComputeDone: float64(rng.Intn(5)),
				Duration:    rng.Float64() + 0.01,
			}
		}
		// Reuse across trials: growth must not change results.
		buf = requireOracleSchedule(t, fmt.Sprintf("trial %d", trial), buf, reqs)
	}
	for _, n := range []int{1, 2, 10000, 20000} {
		for _, arrangement := range []string{"shuffled", "ascending", "descending", "equal"} {
			buf = requireOracleSchedule(t, fmt.Sprintf("N=%d %s", n, arrangement), buf, tdmaRequests(n, arrangement, rng))
		}
	}
}

// TestScheduleTDMAIntoReuse pins the allocation contract: once grown, the
// slot buffer is reused with zero heap allocations per call, at engine
// cohort size and at fleet-scale cohort size alike.
func TestScheduleTDMAIntoReuse(t *testing.T) {
	small := make([]UploadRequest, 32)
	for i := range small {
		small[i] = UploadRequest{User: i, ComputeDone: float64(32 - i), Duration: 0.5}
	}
	var buf []UploadSlot
	for _, reqs := range [][]UploadRequest{small, tdmaRequests(10000, "shuffled", rand.New(rand.NewSource(7)))} {
		buf, _ = ScheduleTDMAInto(buf, reqs)
		n := testing.AllocsPerRun(20, func() {
			buf, _ = ScheduleTDMAInto(buf, reqs)
		})
		if n != 0 {
			t.Errorf("warm ScheduleTDMAInto over %d requests allocates %v times, want 0", len(reqs), n)
		}
	}
	if got, _ := ScheduleTDMAInto(buf[:0], nil); len(got) != 0 {
		t.Fatalf("empty request set returned %d slots", len(got))
	}
}

// BenchmarkScheduleTDMA times the scheduler at the engine's cohort size and
// at the Q = 10⁵ cohort size, the latter both in selection order (unsorted
// in compute-done time, what sim hands it) and already sorted.
func BenchmarkScheduleTDMA(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct {
		name string
		reqs []UploadRequest
	}{
		{"N10", tdmaRequests(10, "shuffled", rng)},
		{"N1e4_shuffled", tdmaRequests(10000, "shuffled", rng)},
		{"N1e4_sorted", tdmaRequests(10000, "ascending", rng)},
	} {
		b.Run(c.name, func(b *testing.B) {
			slots, _ := ScheduleTDMAInto(nil, c.reqs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slots, _ = ScheduleTDMAInto(slots, c.reqs)
			}
		})
	}
}
