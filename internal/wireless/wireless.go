// Package wireless models the TDMA uplink of the HELCFL MEC system: the
// Shannon-rate model of Eq. (6), the model-upload delay of Eq. (7), the
// communication energy of Eq. (8), and the sequential TDMA upload schedule
// that creates the slack time Algorithm 3 reclaims (Fig. 1).
package wireless

import (
	"cmp"
	"fmt"
	"math"

	"helcfl/internal/radix"
)

// Channel describes the shared uplink.
type Channel struct {
	// BandwidthHz is Z, the total resource blocks of the MEC system
	// expressed as bandwidth (paper: 2 MHz).
	BandwidthHz float64
	// NoisePower is N0, the background noise power.
	NoisePower float64
}

// DefaultChannel returns the paper's setting: Z = 2 MHz with a noise floor
// that, combined with 0.2 W transmit power and unit-order channel gains,
// produces upload rates of a few hundred kbit/s. For the experiment model
// sizes this puts upload delays at the 0.5–5 s scale — comparable to but
// below compute delays, the regime in which both the paper's selection
// speedup and its Fig. 1 slack exist.
func DefaultChannel() Channel {
	return Channel{BandwidthHz: 2e6, NoisePower: 1.5}
}

// Validate reports configuration errors.
func (c Channel) Validate() error {
	if c.BandwidthHz <= 0 {
		return fmt.Errorf("wireless: non-positive bandwidth %g", c.BandwidthHz)
	}
	if c.NoisePower <= 0 {
		return fmt.Errorf("wireless: non-positive noise power %g", c.NoisePower)
	}
	return nil
}

// UploadRate returns R_q = Z·log2(1 + p·h² / N0) in bit/s (Eq. 6).
func (c Channel) UploadRate(txPower, gain float64) float64 {
	if txPower <= 0 || gain <= 0 {
		panic(fmt.Sprintf("wireless: non-positive power %g or gain %g", txPower, gain))
	}
	return c.BandwidthHz * math.Log2(1+txPower*gain*gain/c.NoisePower)
}

// UploadDelay returns T_q^com = C_model / R_q (Eq. 7) for a payload of
// modelBits bits.
func (c Channel) UploadDelay(modelBits, txPower, gain float64) float64 {
	if modelBits <= 0 {
		panic(fmt.Sprintf("wireless: non-positive payload %g bits", modelBits))
	}
	return modelBits / c.UploadRate(txPower, gain)
}

// UploadRequest describes one user's pending upload in a round.
type UploadRequest struct {
	// User identifies the device.
	User int
	// ComputeDone is the simulation time the local update finishes.
	ComputeDone float64
	// Duration is T_q^com, the airtime the upload needs.
	Duration float64
}

// UploadSlot is one scheduled TDMA transmission.
type UploadSlot struct {
	User int
	// Start and End bound the transmission. Start ≥ ComputeDone, and
	// transmissions never overlap.
	Start, End float64
	// Wait is the slack between compute completion and transmission start —
	// the "stop and wait" interval of Fig. 1 that the DVFS scheme converts
	// into lower-frequency computation.
	Wait float64
}

// ScheduleTDMA serializes uploads on the single TDMA uplink in
// first-come-first-served order of compute completion (ties broken by user
// ID for determinism), exactly the discipline in the paper's Fig. 1: when a
// user finishes its update while another user is transmitting, it stops and
// waits.
//
// The returned slots are in transmission order. The second result is the
// round makespan (the time the last upload ends), zero for no requests.
func ScheduleTDMA(reqs []UploadRequest) ([]UploadSlot, float64) {
	return ScheduleTDMAInto(nil, reqs)
}

// ScheduleTDMAInto is ScheduleTDMA reusing dst's backing array when its
// capacity holds 2·len(reqs) slots (the upper half is the radix ping-pong
// buffer), so a caller scheduling every round can amortize the slot slice
// to zero steady-state allocations. A stable radix order on ComputeDone
// (−0 ties +0), equal times re-sorted stably by User, is the order a stable
// sort on (ComputeDone, User) produces. It panics on a duration that is not
// positive or a compute-done time that is not finite. Returns the (possibly
// regrown) slot slice and the round makespan.
func ScheduleTDMAInto(dst []UploadSlot, reqs []UploadRequest) ([]UploadSlot, float64) {
	n := len(reqs)
	if n == 0 {
		return dst[:0], 0
	}
	if cap(dst) < 2*n {
		dst = make([]UploadSlot, 2*n)
	}
	dst, spare := dst[:n], dst[n:2*n]
	// Stage each request as a pending slot: until the sweep below, Start
	// holds ComputeDone, End holds Duration and Wait holds the input
	// position (exact in a float64 for any slice length).
	for i, r := range reqs {
		if !(r.Duration > 0) {
			panic(fmt.Sprintf("wireless: non-positive upload duration %g for user %d", r.Duration, r.User))
		}
		if math.IsNaN(r.ComputeDone) || math.IsInf(r.ComputeDone, 0) {
			panic(fmt.Sprintf("wireless: non-finite compute-done time %g for user %d", r.ComputeDone, r.User))
		}
		dst[i] = UploadSlot{User: r.User, Start: r.ComputeDone, End: r.Duration, Wait: float64(i)}
	}
	radix.Sort(dst, spare, func(sl UploadSlot) uint64 { return radix.Key(sl.Start) },
		func(a, b UploadSlot) int { return cmp.Compare(a.User, b.User) })
	free := 0.0 // time the channel becomes free
	for i := range dst {
		computeDone, dur := dst[i].Start, dst[i].End
		start := computeDone
		if free > start {
			start = free
		}
		dst[i] = UploadSlot{
			User:  dst[i].User,
			Start: start,
			End:   start + dur,
			Wait:  start - computeDone,
		}
		free = dst[i].End
	}
	return dst, free
}

// TotalWait sums the slack across all slots.
func TotalWait(slots []UploadSlot) float64 {
	s := 0.0
	for _, sl := range slots {
		s += sl.Wait
	}
	return s
}
