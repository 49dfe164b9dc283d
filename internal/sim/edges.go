package sim

import (
	"fmt"
	"slices"

	"helcfl/internal/device"
	"helcfl/internal/wireless"
)

// SimulateRoundEdges is SimulateRoundGains with a hierarchical aggregation
// tier: each selected device uploads to its edge aggregator (edges[i], in
// [0, numEdges)) instead of the FLCC, and the numEdges TDMA uplinks run in
// parallel. The round makespan is the slowest edge's makespan; stop-and-wait
// slack sums across edges. Edge→FLCC backhaul is modeled as free, the
// standard wired-backhaul assumption in hierarchical FL (the access uplink
// is the bottleneck the paper's Eq. (6)–(8) model).
//
// Users is ordered edge-major (edge 0's slots, then edge 1's, ...), each
// edge in its own TDMA transmission order. With numEdges == 1 the result is
// bit-identical to SimulateRoundGains — the single "edge" is the FLCC.
func (s *Scratch) SimulateRoundEdges(devs []*device.Device, freqs []float64, ch wireless.Channel, modelBits float64, steps int, gains []float64, edges []int, numEdges int) RoundResult {
	if len(edges) != len(devs) {
		panic(fmt.Sprintf("sim: %d devices but %d edge assignments", len(devs), len(edges)))
	}
	if numEdges <= 0 {
		panic(fmt.Sprintf("sim: non-positive edge count %d", numEdges))
	}
	res := s.fill(devs, freqs, ch, modelBits, steps, gains)

	// Bucket the requests by edge in one counting pass, keeping input order
	// inside each bucket: count, prefix-sum to bucket starts, scatter. The
	// scatter advances each start to its bucket's end.
	s.edgeEnd = slices.Grow(s.edgeEnd[:0], numEdges)[:numEdges]
	end := s.edgeEnd
	clear(end)
	for i, e := range edges {
		if e < 0 || e >= numEdges {
			panic(fmt.Sprintf("sim: device %d assigned to edge %d outside [0, %d)", devs[i].ID, e, numEdges))
		}
		end[e]++
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
