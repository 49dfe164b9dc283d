package sim

import (
	"math"
	"math/rand"
	"testing"

	"helcfl/internal/device"
	"helcfl/internal/wireless"
)

func edgeFleet(n int, seed int64) []*device.Device {
	cfg := device.DefaultCatalogConfig()
	cfg.Q = n
	devs := device.NewCatalog(cfg, rand.New(rand.NewSource(seed)))
	for i, d := range devs {
		d.NumSamples = 25 + 5*(i%5)
	}
	return devs
}

// flatRoundReference is the paper's flat round built directly from the
// cost model and wireless.ScheduleTDMA: Eqs. (4)–(8) per user, one TDMA
// uplink to the FLCC, the Eq. (10) and Eq. (11) roll-ups in input order.
func flatRoundReference(devs []*device.Device, freqs []float64, ch wireless.Channel, modelBits float64, steps int) RoundResult {
	scale := float64(steps)
	users := make([]UserRound, len(devs))
	reqs := make([]wireless.UploadRequest, len(devs))
	var res RoundResult
	for i, d := range devs {
		upload := ch.UploadDelay(modelBits, d.TxPower, d.ChannelGain)
		users[i] = UserRound{
			User: d.ID, Freq: freqs[i],
			ComputeDelay: scale * d.ComputeDelay(freqs[i]), ComputeEnergy: scale * d.ComputeEnergy(freqs[i]),
			UploadDelay: upload, UploadEnergy: d.TxPower * upload,
		}
		reqs[i] = wireless.UploadRequest{User: i, ComputeDone: users[i].ComputeDelay, Duration: upload}
	}
	for _, u := range users {
		res.Eq10Delay = math.Max(res.Eq10Delay, u.TotalDelay())
		res.ComputeEnergy += u.ComputeEnergy
		res.UploadEnergy += u.UploadEnergy
	}
	res.TotalEnergy = res.ComputeEnergy + res.UploadEnergy
	slots, makespan := wireless.ScheduleTDMA(reqs)
	res.Makespan, res.TotalSlack = makespan, wireless.TotalWait(slots)
	for _, slot := range slots {
		u := users[slot.User]
		u.UploadStart, u.UploadEnd, u.Wait = slot.Start, slot.End, slot.Wait
		res.Users = append(res.Users, u)
	}
	return res
}

// TestSimulateRoundEdgesSingleEdgeMatchesFlat pins the numEdges == 1 path
// — with explicit all-zero edges and with nil edges — bit-identical to a
// flat reference built from the cost model and wireless.ScheduleTDMA: one
// edge IS the FLCC.
func TestSimulateRoundEdgesSingleEdgeMatchesFlat(t *testing.T) {
	devs := edgeFleet(17, 4)
	ch := wireless.DefaultChannel()
	freqs := MaxFrequencies(devs)
	for i := range freqs {
		if i%3 == 1 { // stretch some users so the uplink sees real slack
			freqs[i] = devs[i].ClampFreq(0.6 * freqs[i])
		}
	}
	want := flatRoundReference(devs, freqs, ch, 4e5, 2)
	var a, b Scratch
	for name, got := range map[string]RoundResult{
		"zero edges": a.SimulateRoundEdges(devs, freqs, ch, 4e5, 2, nil, make([]int, len(devs)), 1),
		"nil edges":  b.SimulateRoundGains(devs, freqs, ch, 4e5, 2, nil),
	} {
		if got.Makespan != want.Makespan || got.Eq10Delay != want.Eq10Delay ||
			got.ComputeEnergy != want.ComputeEnergy || got.UploadEnergy != want.UploadEnergy ||
			got.TotalEnergy != want.TotalEnergy || got.TotalSlack != want.TotalSlack {
			t.Fatalf("%s: aggregates diverge from the TDMA reference:\ngot  %+v\nwant %+v", name, got, want)
		}
		if len(got.Users) != len(want.Users) {
			t.Fatalf("%s: user counts %d vs %d", name, len(got.Users), len(want.Users))
		}
		for i := range want.Users {
			if got.Users[i] != want.Users[i] {
				t.Fatalf("%s: user %d diverges:\ngot  %+v\nwant %+v", name, i, got.Users[i], want.Users[i])
			}
		}
	}
}

// TestSimulateRoundEdgesParallelUplinks checks the hierarchical semantics:
// per-edge TDMA chains run in parallel, so the round makespan is the max of
// the per-edge makespans (never larger than the flat single-channel one),
// energies are channel-independent, and every user appears exactly once in
// edge-major order.
func TestSimulateRoundEdgesParallelUplinks(t *testing.T) {
	devs := edgeFleet(24, 9)
	ch := wireless.DefaultChannel()
	freqs := MaxFrequencies(devs)
	const numEdges = 3
	edges := make([]int, len(devs))
	for i := range edges {
		edges[i] = i % numEdges
	}
	var s Scratch
	flat := SimulateRound(devs, freqs, ch, 4e5, 1)
	hier := s.SimulateRoundEdges(devs, freqs, ch, 4e5, 1, nil, edges, numEdges)

	if hier.Makespan > flat.Makespan {
		t.Fatalf("parallel edge uplinks made the round slower: %v > %v", hier.Makespan, flat.Makespan)
	}
	if math.Abs(hier.TotalEnergy-flat.TotalEnergy) > 1e-9 {
		t.Fatalf("energy depends on aggregation topology: %v vs %v", hier.TotalEnergy, flat.TotalEnergy)
	}
	if hier.Eq10Delay != flat.Eq10Delay {
		t.Fatalf("Eq10Delay depends on topology: %v vs %v", hier.Eq10Delay, flat.Eq10Delay)
	}
	// Recompute each edge in isolation; the round makespan must be their max.
	maxEdge := 0.0
	for e := 0; e < numEdges; e++ {
		var ed []*device.Device
		var ef []float64
		for i, d := range devs {
			if edges[i] == e {
				ed = append(ed, d)
				ef = append(ef, freqs[i])
			}
		}
		r := SimulateRound(ed, ef, ch, 4e5, 1)
		if r.Makespan > maxEdge {
			maxEdge = r.Makespan
		}
	}
	if hier.Makespan != maxEdge {
		t.Fatalf("makespan %v != max per-edge makespan %v", hier.Makespan, maxEdge)
	}
	// Coverage: every device exactly once, grouped edge-major.
	seen := make(map[int]int)
	for _, u := range hier.Users {
		seen[u.User]++
	}
	for _, d := range devs {
		if seen[d.ID] != 1 {
			t.Fatalf("device %d appears %d times", d.ID, seen[d.ID])
		}
	}
	prevEdge := -1
	for _, u := range hier.Users {
		e := u.User % numEdges // edges[i] = i%numEdges and ID = position
		if e < prevEdge {
			t.Fatalf("users not edge-major: edge %d after edge %d", e, prevEdge)
		}
		prevEdge = e
	}
}

func TestSimulateRoundEdgesPanics(t *testing.T) {
	devs := edgeFleet(3, 1)
	ch := wireless.DefaultChannel()
	freqs := MaxFrequencies(devs)
	var s Scratch
	for name, f := range map[string]func(){
		"ragged edges":   func() { s.SimulateRoundEdges(devs, freqs, ch, 4e5, 1, nil, []int{0}, 1) },
		"nil edges":      func() { s.SimulateRoundEdges(devs, freqs, ch, 4e5, 1, nil, nil, 2) },
		"zero edges":     func() { s.SimulateRoundEdges(devs, freqs, ch, 4e5, 1, nil, []int{0, 0, 0}, 0) },
		"edge range":     func() { s.SimulateRoundEdges(devs, freqs, ch, 4e5, 1, nil, []int{0, 2, 0}, 2) },
		"one-edge range": func() { s.SimulateRoundEdges(devs, freqs, ch, 4e5, 1, nil, []int{0, 1, 0}, 1) },
		"negative edge":  func() { s.SimulateRoundEdges(devs, freqs, ch, 4e5, 1, nil, []int{0, -1, 0}, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
