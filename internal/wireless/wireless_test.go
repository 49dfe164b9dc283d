package wireless

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestUploadRateEq6(t *testing.T) {
	c := Channel{BandwidthHz: 2e6, NoisePower: 0.1}
	// R = Z log2(1 + p h²/N0) = 2e6·log2(1 + 0.2·1/0.1) = 2e6·log2(3).
	want := 2e6 * math.Log2(3)
	if got := c.UploadRate(0.2, 1.0); math.Abs(got-want) > 1e-6 {
		t.Fatalf("UploadRate = %g, want %g", got, want)
	}
}

func TestUploadRateMonotoneInGain(t *testing.T) {
	c := DefaultChannel()
	if c.UploadRate(0.2, 0.5) >= c.UploadRate(0.2, 1.5) {
		t.Fatal("rate must grow with channel gain")
	}
}

func TestUploadDelayEq7(t *testing.T) {
	c := Channel{BandwidthHz: 1e6, NoisePower: 0.1}
	r := c.UploadRate(0.2, 1.0)
	bits := 8e6
	wantDelay := bits / r
	if got := c.UploadDelay(bits, 0.2, 1.0); math.Abs(got-wantDelay) > 1e-9 {
		t.Fatalf("UploadDelay = %g, want %g", got, wantDelay)
	}
}

func TestChannelValidate(t *testing.T) {
	if err := DefaultChannel().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Channel{BandwidthHz: 0, NoisePower: 1}).Validate(); err == nil {
		t.Fatal("zero bandwidth must fail")
	}
	if err := (Channel{BandwidthHz: 1, NoisePower: 0}).Validate(); err == nil {
		t.Fatal("zero noise must fail")
	}
}

func TestScheduleTDMANoOverlap(t *testing.T) {
	reqs := []UploadRequest{
		{User: 0, ComputeDone: 0, Duration: 3},
		{User: 1, ComputeDone: 1, Duration: 2},
		{User: 2, ComputeDone: 10, Duration: 1},
	}
	slots, makespan := ScheduleTDMA(reqs)
	if len(slots) != 3 {
		t.Fatalf("slots = %d", len(slots))
	}
	// User 0 transmits [0,3); user 1 finished computing at 1 but must wait
	// until 3 (Fig. 1's stop-and-wait); user 2 starts immediately at 10.
	if slots[0].User != 0 || slots[0].Start != 0 || slots[0].End != 3 {
		t.Fatalf("slot0 = %+v", slots[0])
	}
	if slots[1].User != 1 || slots[1].Start != 3 || slots[1].Wait != 2 {
		t.Fatalf("slot1 = %+v", slots[1])
	}
	if slots[2].User != 2 || slots[2].Start != 10 || slots[2].Wait != 0 {
		t.Fatalf("slot2 = %+v", slots[2])
	}
	if makespan != 11 {
		t.Fatalf("makespan = %g, want 11", makespan)
	}
	if TotalWait(slots) != 2 {
		t.Fatalf("TotalWait = %g, want 2", TotalWait(slots))
	}
}

func TestScheduleTDMAEmptyAndSingle(t *testing.T) {
	slots, mk := ScheduleTDMA(nil)
	if slots != nil || mk != 0 {
		t.Fatal("empty schedule must be nil/0")
	}
	slots, mk = ScheduleTDMA([]UploadRequest{{User: 5, ComputeDone: 2, Duration: 4}})
	if len(slots) != 1 || slots[0].Wait != 0 || mk != 6 {
		t.Fatalf("single = %+v mk=%g", slots, mk)
	}
}

func TestScheduleTDMATieBreakByUser(t *testing.T) {
	reqs := []UploadRequest{
		{User: 7, ComputeDone: 1, Duration: 1},
		{User: 2, ComputeDone: 1, Duration: 1},
	}
	slots, _ := ScheduleTDMA(reqs)
	if slots[0].User != 2 {
		t.Fatalf("tie must break by user ID: first = %d", slots[0].User)
	}
}

// TestScheduleTDMABadDurationPanics: a duration that is not positive (NaN
// included) and a NaN or infinite compute-done time have no place on the
// uplink, so the scheduler panics naming the field, wherever the bad
// request sits in the set.
func TestScheduleTDMABadDurationPanics(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name             string
		computeDone, dur float64
		want             string
	}{
		{"zero duration", 0, 0, "non-positive upload duration"},
		{"negative duration", 1, -2, "non-positive upload duration"},
		{"NaN duration", 1, nan, "non-positive upload duration"},
		{"NaN compute-done", nan, 1, "non-finite compute-done time"},
		{"+Inf compute-done", inf, 1, "non-finite compute-done time"},
		{"-Inf compute-done", -inf, 1, "non-finite compute-done time"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), c.want) {
					t.Fatalf("panic %v, want %q", r, c.want)
				}
			}()
			ScheduleTDMA([]UploadRequest{
				{User: 0, ComputeDone: 0, Duration: 1},
				{User: 1, ComputeDone: c.computeDone, Duration: c.dur},
			})
		})
	}
}

// Property: schedules never overlap, never start before compute completion,
// respect FCFS order, and the makespan is the max end time.
func TestScheduleTDMAInvariantsQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%12 + 1
		rng := rand.New(rand.NewSource(seed))
		reqs := make([]UploadRequest, n)
		for i := range reqs {
			reqs[i] = UploadRequest{
				User:        i,
				ComputeDone: 10 * rng.Float64(),
				Duration:    0.1 + 3*rng.Float64(),
			}
		}
		slots, makespan := ScheduleTDMA(reqs)
		if len(slots) != n {
			return false
		}
		byDone := append([]UploadRequest(nil), reqs...)
		sort.SliceStable(byDone, func(a, b int) bool {
			if byDone[a].ComputeDone != byDone[b].ComputeDone {
				return byDone[a].ComputeDone < byDone[b].ComputeDone
			}
			return byDone[a].User < byDone[b].User
		})
		maxEnd := 0.0
		for i, s := range slots {
			if s.User != byDone[i].User { // FCFS order
				return false
			}
			if s.Start < byDone[i].ComputeDone-1e-12 { // causality
				return false
			}
			if i > 0 && s.Start < slots[i-1].End-1e-12 { // no overlap
				return false
			}
			if s.Wait < -1e-12 {
				return false
			}
			if s.End > maxEnd {
				maxEnd = s.End
			}
		}
		return math.Abs(maxEnd-makespan) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Eq. (10)'s max(T_cal + T_com) is a lower bound on the true TDMA
// makespan (the paper's closed form ignores queueing).
func TestEq10LowerBoundsMakespanQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%10 + 1
		rng := rand.New(rand.NewSource(seed))
		reqs := make([]UploadRequest, n)
		eq10 := 0.0
		for i := range reqs {
			reqs[i] = UploadRequest{User: i, ComputeDone: 5 * rng.Float64(), Duration: 0.1 + 2*rng.Float64()}
			if v := reqs[i].ComputeDone + reqs[i].Duration; v > eq10 {
				eq10 = v
			}
		}
		_, makespan := ScheduleTDMA(reqs)
		return makespan >= eq10-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
