// Package sim simulates one synchronized FL training round on the MEC
// substrate: parallel local computation at per-user DVFS frequencies,
// sequential TDMA uploads with stop-and-wait queueing (the paper's Fig. 1),
// the true round makespan, the Eq. (10) closed form, and the Eq. (11)
// energy roll-up.
package sim

import (
	"fmt"
	"slices"

	"helcfl/internal/device"
	"helcfl/internal/wireless"
)

// UserRound is the simulated trajectory of one selected user in a round.
type UserRound struct {
	// User is the device ID.
	User int
	// Freq is the operating frequency assigned for this round.
	Freq float64
	// ComputeDelay is T_q^cal at Freq (Eq. 4), scaled by the number of
	// local GD steps.
	ComputeDelay float64
	// ComputeEnergy is E_q^cal (Eq. 5), scaled likewise.
	ComputeEnergy float64
	// UploadDelay is T_q^com (Eq. 7).
	UploadDelay float64
	// UploadEnergy is E_q^com (Eq. 8).
	UploadEnergy float64
	// UploadStart and UploadEnd bound the TDMA transmission.
	UploadStart, UploadEnd float64
	// Wait is the stop-and-wait slack between compute completion and
	// transmission start.
	Wait float64
}

// TotalDelay returns the user's Eq. (9) delay T_q = T_q^cal + T_q^com,
// ignoring queueing.
func (u UserRound) TotalDelay() float64 { return u.ComputeDelay + u.UploadDelay }

// RoundResult aggregates a simulated round.
type RoundResult struct {
	// Users holds per-user trajectories in TDMA transmission order.
	Users []UserRound
	// Makespan is the true round delay: the time the last upload completes.
	Makespan float64
	// Eq10Delay is the paper's closed-form round delay
	// max_q(T_q^cal + T_q^com); it lower-bounds Makespan.
	Eq10Delay float64
	// ComputeEnergy, UploadEnergy, and TotalEnergy aggregate Eq. (11).
	ComputeEnergy, UploadEnergy, TotalEnergy float64
	// TotalSlack sums stop-and-wait time across users.
	TotalSlack float64
}

// SimulateRound runs the round timeline for the selected devices at the
// given frequencies. freqs must align 1:1 with devs. modelBits is C_model;
// steps is the number of local full-batch GD passes (the paper uses 1) and
// scales compute delay and energy linearly.
func SimulateRound(devs []*device.Device, freqs []float64, ch wireless.Channel, modelBits float64, steps int) RoundResult {
	var s Scratch
	return s.SimulateRoundGains(devs, freqs, ch, modelBits, steps, nil)
}

// Scratch holds the per-round working buffers of the simulator so a caller
// driving many rounds (the fl engine's hot loop) reuses them instead of
// allocating fresh slices every round. The zero value is ready to use.
//
// The RoundResult returned by its methods aliases the scratch: Users is
// only valid until the next call on the same Scratch. Callers that need to
// retain a round must copy it (or use the allocating SimulateRound).
type Scratch struct {
	users []UserRound
	reqs  []wireless.UploadRequest
	slots []wireless.UploadSlot
	out   []UserRound
	// edgeReqs holds the requests bucketed by edge aggregator, and edgeEnd
	// the end of each edge's bucket, in SimulateRoundEdges.
	edgeReqs []wireless.UploadRequest
	edgeEnd  []int
}

// SimulateRoundGains is SimulateRound with per-round channel gains
// overriding each device's static gain (for fading-channel studies), on
// this Scratch's buffers: the one-edge case of SimulateRoundEdges, where
// every device uploads to the FLCC. gains must align with devs, or be nil
// to use the static gains.
func (s *Scratch) SimulateRoundGains(devs []*device.Device, freqs []float64, ch wireless.Channel, modelBits float64, steps int, gains []float64) RoundResult {
	return s.SimulateRoundEdges(devs, freqs, ch, modelBits, steps, gains, nil, 1)
}

// SimulateRoundEdges simulates a round over an edge-aggregation tier: each
// selected device uploads to its edge aggregator (edges[i], in
// [0, numEdges); nil when numEdges == 1) instead of the
// FLCC, and the numEdges TDMA uplinks run in parallel. The round makespan
// is the slowest edge's makespan; stop-and-wait slack sums across edges.
// Edge→FLCC backhaul is modeled as free, the standard wired-backhaul
// assumption in hierarchical FL (the access uplink is the bottleneck the
// paper's Eq. (6)–(8) model). With numEdges == 1 the single edge is the
// FLCC — the paper's flat round.
//
// Users is ordered edge-major (edge 0's slots, then edge 1's, ...), each
// edge in its own TDMA transmission order.
func (s *Scratch) SimulateRoundEdges(devs []*device.Device, freqs []float64, ch wireless.Channel, modelBits float64, steps int, gains []float64, edges []int, numEdges int) RoundResult {
	if (edges != nil || numEdges > 1) && len(edges) != len(devs) {
		panic(fmt.Sprintf("sim: %d devices but %d edge assignments", len(devs), len(edges)))
	}
	if numEdges <= 0 {
		panic(fmt.Sprintf("sim: non-positive edge count %d", numEdges))
	}
	res := s.fill(devs, freqs, ch, modelBits, steps, gains)

	// Bucket the requests by edge in one counting pass, keeping input order
	// inside each bucket: count, prefix-sum to bucket starts, scatter. The
	// scatter advances each start to its bucket's end. One edge needs only
	// the count's range check.
	s.edgeEnd = slices.Grow(s.edgeEnd[:0], numEdges)[:numEdges]
	end := s.edgeEnd
	clear(end)
	for i, e := range edges {
		if e < 0 || e >= numEdges {
			panic(fmt.Sprintf("sim: device %d assigned to edge %d outside [0, %d)", devs[i].ID, e, numEdges))
		}
		end[e]++
	}
	if numEdges == 1 {
		s.uplink(&res, s.reqs)
		return res
	}
	start := 0
	for e, count := range end {
		end[e] = start
		start += count
	}
	s.edgeReqs = slices.Grow(s.edgeReqs[:0], len(edges))[:len(edges)]
	for i, e := range edges {
		s.edgeReqs[end[e]] = s.reqs[i]
		end[e]++
	}

	start = 0
	for _, stop := range end {
		s.uplink(&res, s.edgeReqs[start:stop])
		start = stop
	}
	return res
}

// fill is the per-user pass of the simulator: it validates the round's
// inputs, evaluates Eqs. (4)–(8) once per user into
// s.users (input order), stages one upload request per user in s.reqs
// (User is the input position), empties s.out, and returns the Eq. (10) /
// Eq. (11) roll-up. The TDMA half of the result is left to uplink.
func (s *Scratch) fill(devs []*device.Device, freqs []float64, ch wireless.Channel, modelBits float64, steps int, gains []float64) RoundResult {
	n := len(devs)
	if n != len(freqs) {
		panic(fmt.Sprintf("sim: %d devices but %d frequencies", n, len(freqs)))
	}
	if gains != nil && len(gains) != n {
		panic(fmt.Sprintf("sim: %d devices but %d gains", n, len(gains)))
	}
	if steps <= 0 {
		panic(fmt.Sprintf("sim: non-positive local steps %d", steps))
	}
	scale := float64(steps)
	s.users = slices.Grow(s.users[:0], n)[:n]
	s.reqs = slices.Grow(s.reqs[:0], n)[:n]
	s.out = slices.Grow(s.out[:0], n)
	for i, d := range devs {
		f := freqs[i]
		// Relative tolerance: frequencies are ~1e9 Hz, so ULP-scale noise
		// from upstream arithmetic must not trip the range check.
		if f < d.FMin*(1-1e-12)-1e-9 || f > d.FMax*(1+1e-12)+1e-9 {
			panic(fmt.Sprintf("sim: frequency %g outside device %d range [%g, %g]", f, d.ID, d.FMin, d.FMax))
		}
		gain := d.ChannelGain
		if gains != nil {
			gain = gains[i]
		}
		upload := ch.UploadDelay(modelBits, d.TxPower, gain)
		u := UserRound{
			User:          d.ID,
			Freq:          f,
			ComputeDelay:  scale * d.ComputeDelay(f),
			ComputeEnergy: scale * d.ComputeEnergy(f),
			UploadDelay:   upload,
			UploadEnergy:  d.TxPower * upload, // Eq. (8) on the Eq. (7) delay above
		}
		s.users[i] = u
		s.reqs[i] = wireless.UploadRequest{User: i, ComputeDone: u.ComputeDelay, Duration: u.UploadDelay}
	}
	// The roll-up reads the stored per-user values in its own loop, so each
	// sum adds already-rounded terms in input order on every architecture.
	var res RoundResult
	for _, u := range s.users {
		if d := u.TotalDelay(); d > res.Eq10Delay {
			res.Eq10Delay = d
		}
		res.ComputeEnergy += u.ComputeEnergy
		res.UploadEnergy += u.UploadEnergy
	}
	res.TotalEnergy = res.ComputeEnergy + res.UploadEnergy
	return res
}

// uplink schedules reqs — a subset of s.reqs — on one TDMA uplink, appends
// the users' completed trajectories to the round's Users in transmission
// order, and folds the uplink's makespan and slack into res.
func (s *Scratch) uplink(res *RoundResult, reqs []wireless.UploadRequest) {
	slots, makespan := wireless.ScheduleTDMAInto(s.slots, reqs)
	s.slots = slots
	if makespan > res.Makespan {
		res.Makespan = makespan
	}
	res.TotalSlack += wireless.TotalWait(slots)
	for _, slot := range slots {
		u := s.users[slot.User]
		u.UploadStart = slot.Start
		u.UploadEnd = slot.End
		u.Wait = slot.Wait
		s.out = append(s.out, u)
	}
	res.Users = s.out
}

// MaxFrequencies returns each device's FMax, the no-DVFS baseline plan.
func MaxFrequencies(devs []*device.Device) []float64 {
	out := make([]float64, len(devs))
	for i, d := range devs {
		out[i] = d.FMax
	}
	return out
}
