package wireless

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	return sweepOracle(order)
}

// compareStaged orders staged slots (Start = ComputeDone, Wait = input
// position) first come first served: compute-done time, then user ID,
// then input position. It is the comparator ScheduleTDMAInto's radix order
// replaced, kept as a second oracle.
func compareStaged(a, b UploadSlot) int {
	switch {
	case a.Start < b.Start:
		return -1
	case a.Start > b.Start:
		return 1
	case a.User != b.User:
		return cmp.Compare(a.User, b.User)
	}
	return cmp.Compare(a.Wait, b.Wait)
}

// scheduleStagedOracle orders the requests by compareStaged and sweeps.
func scheduleStagedOracle(reqs []UploadRequest) ([]UploadSlot, float64) {
	staged := make([]UploadSlot, len(reqs))
	for i, r := range reqs {
		staged[i] = UploadSlot{User: r.User, Start: r.ComputeDone, Wait: float64(i)}
	}
	slices.SortFunc(staged, compareStaged)
	order := make([]UploadRequest, len(reqs))
	for i, st := range staged {
		order[i] = reqs[int(st.Wait)]
	}
	return sweepOracle(order)
}

// sweepOracle transmits the requests in the given order (Fig. 1).
func sweepOracle(order []UploadRequest) ([]UploadSlot, float64) {
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

// requireOracleSchedule fails unless ScheduleTDMAInto(buf, reqs) equals
// both oracles' schedules bit for bit; it returns the slot buffer for reuse.
func requireOracleSchedule(t *testing.T, label string, buf []UploadSlot, reqs []UploadRequest) []UploadSlot {
	t.Helper()
	gotSlots, gotMk := ScheduleTDMAInto(buf, reqs)
	for _, oracle := range []func([]UploadRequest) ([]UploadSlot, float64){scheduleTDMAOracle, scheduleStagedOracle} {
		wantSlots, wantMk := oracle(reqs)
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

// FuzzScheduleTDMAVsOracle runs ScheduleTDMAInto against both oracles on
// fuzzer-chosen raw compute-done bit patterns — exact ties, ±0,
// subnormals, negative times — and user IDs from a small range, so
// duplicate users are common. Each request takes 10 bytes: a selector
// (raw bits, or one of a palette of edge values), a user byte and the
// 8-byte pattern. A NaN or infinite pattern must panic instead.
func FuzzScheduleTDMAVsOracle(f *testing.F) {
	raw := func(vals ...float64) []byte {
		var b []byte
		for i, v := range vals {
			b = append(b, 1, byte(i%3))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(raw(1, 1, 0, 2))
	f.Add(raw(0, math.Copysign(0, -1), 0, math.Copysign(0, -1)))
	f.Add(raw(5e-324, -5e-324, 1e-310, 0, -1e-310))
	f.Add(raw(-3, -3, 2, -1e300, 1e300))
	f.Add(raw(math.NaN()))
	f.Add(raw(1, math.Inf(-1)))
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 4, 2})
	palette := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1, -1, 2.5, 1e300, -1e300}
	var buf []UploadSlot
	f.Fuzz(func(t *testing.T, data []byte) {
		var reqs []UploadRequest
		finite := true
		for len(data) >= 10 {
			sel, user, bits := data[0], data[1], binary.LittleEndian.Uint64(data[2:10])
			done := palette[int(bits%uint64(len(palette)))]
			if sel&1 == 1 {
				done = math.Float64frombits(bits)
			}
			finite = finite && !math.IsNaN(done) && !math.IsInf(done, 0)
			reqs = append(reqs, UploadRequest{
				User:        int(user % 5),
				ComputeDone: done,
				Duration:    0.25 + float64(sel>>1),
			})
			data = data[10:]
		}
		if !finite {
			defer func() {
				if recover() == nil {
					t.Fatal("a NaN or infinite compute-done time did not panic")
				}
			}()
			ScheduleTDMAInto(buf, reqs)
			return
		}
		buf = requireOracleSchedule(t, "fuzz", buf, reqs)
	})
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
