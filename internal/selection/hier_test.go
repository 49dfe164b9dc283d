package selection

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"helcfl/internal/core"
	"helcfl/internal/device"
	"helcfl/internal/wireless"
)

func hierFleet(n int, seed int64) []*device.Device {
	cfg := device.DefaultCatalogConfig()
	cfg.Q = n
	devs := device.NewCatalog(cfg, rand.New(rand.NewSource(seed)))
	for i, d := range devs {
		d.NumSamples = 30 + 7*(i%6)
	}
	return devs
}

// TestHierHELCFLSingleEdgeMatchesFlat pins the E = 1 planner — the paper's
// flat HELCFL — bit-identical to a bare core scheduler over the whole fleet
// for 20 rounds: one shard is the whole fleet and the single edge is the
// FLCC. Both constructors build it.
func TestHierHELCFLSingleEdgeMatchesFlat(t *testing.T) {
	devs := hierFleet(80, 6)
	ch := wireless.DefaultChannel()
	flat, err := NewHELCFL(devs, ch, 4e5, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	hier, err := NewHierHELCFL(devs, 1, ch, 4e5, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if flat.Name() != "HELCFL" || hier.Name() != "HELCFL-hier" || flat.NumEdges() != 1 {
		t.Fatalf("names %q/%q, edges %d", flat.Name(), hier.Name(), flat.NumEdges())
	}
	ref, err := core.NewScheduler(devs, ch, 4e5, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 20; j++ {
		ws, wf := ref.PlanRound(ch, 4e5)
		for name, p := range map[string]*HELCFLPlanner{"flat": flat, "hier": hier} {
			gs, gf := p.PlanRound(j)
			requirePlan(t, fmt.Sprintf("%s round %d", name, j), gs, gf, ws, wf)
		}
	}
}

// TestHierHELCFLMatchesShardSchedulers pins E ∈ {2, 3, 5} to E independent
// core schedulers, one per contiguous shard, whose shard-local selections
// are lifted to fleet indices and concatenated edge-major.
func TestHierHELCFLMatchesShardSchedulers(t *testing.T) {
	devs := hierFleet(47, 3)
	ch := wireless.DefaultChannel()
	for _, numEdges := range []int{2, 3, 5} {
		h, err := NewHierHELCFL(devs, numEdges, ch, 4e5, core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		refs := make([]*core.Scheduler, numEdges)
		offs := make([]int, numEdges)
		off := 0
		for e := range refs {
			size := len(devs) / numEdges
			if e < len(devs)%numEdges {
				size++
			}
			if refs[e], err = core.NewScheduler(devs[off:off+size], ch, 4e5, core.DefaultParams()); err != nil {
				t.Fatal(err)
			}
			offs[e] = off
			off += size
		}
		for j := 0; j < 10; j++ {
			var ws []int
			var wf []float64
			for e, ref := range refs {
				sel, freqs := ref.PlanRound(ch, 4e5)
				for i, l := range sel {
					ws = append(ws, offs[e]+l)
					wf = append(wf, freqs[i])
				}
			}
			gs, gf := h.PlanRound(j)
			requirePlan(t, fmt.Sprintf("E=%d round %d", numEdges, j), gs, gf, ws, wf)
		}
	}
}

// TestHELCFLPlannerMatchesShardOracles pins the planner's keyed selection,
// at E ∈ {1, 3}, to a naive repeated argmax per shard written against the
// exported scheduler API alone: each round a shard's oracle imports that
// shard's appearance counters, reads its Eq. (20) utilities through
// Utility, and takes the argmax N times, keeping the lower index on a
// tie. Plans, utility vectors and decay counters must match bit for bit
// over 50 rounds, through an ImportState into the live planner at round 25.
func TestHELCFLPlannerMatchesShardOracles(t *testing.T) {
	ch := wireless.DefaultChannel()
	devs := hierFleet(61, 9)
	for i, d := range devs[:30] {
		*d = *devs[30+i%3] // exact ties across the first shard
		d.ID = i
	}
	for _, numEdges := range []int{1, 3} {
		for _, frac := range []float64{0.1, 0.5} {
			params := core.DefaultParams()
			params.Fraction = frac
			h, err := NewHierHELCFL(devs, numEdges, ch, 4e5, params)
			if err != nil {
				t.Fatal(err)
			}
			donor, err := NewHierHELCFL(devs, numEdges, ch, 4e5, params)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 9; j++ {
				donor.PlanRound(j)
			}
			oracles := make([]*core.Scheduler, numEdges)
			alpha := make([][]int, numEdges)
			for e := range oracles {
				shard := devs[h.offsets[e]:h.offsets[e+1]]
				if oracles[e], err = core.NewScheduler(shard, ch, 4e5, params); err != nil {
					t.Fatal(err)
				}
				alpha[e] = make([]int, len(shard))
			}
			for j := 0; j < 50; j++ {
				what := fmt.Sprintf("E=%d C=%g round %d", numEdges, frac, j)
				if j == 25 {
					raw, err := donor.ExportState()
					if err != nil {
						t.Fatal(err)
					}
					if err := h.ImportState(raw); err != nil {
						t.Fatal(err)
					}
					_, da := donor.SelectionDetail()
					for e := range alpha {
						alpha[e] = append([]int(nil), da[h.offsets[e]:h.offsets[e+1]]...)
					}
				}
				var ws []int
				var wf, wu []float64
				var wa []int
				for e, ref := range oracles {
					if err := ref.ImportState(core.SchedulerState{Alpha: alpha[e]}); err != nil {
						t.Fatal(err)
					}
					util := make([]float64, len(alpha[e]))
					for l := range util {
						util[l] = ref.Utility(l)
					}
					taken := make([]bool, len(util))
					sel := make([]int, 0, ref.NumSelect())
					for len(sel) < ref.NumSelect() {
						best := -1
						for l := range util {
							if !taken[l] && (best < 0 || util[l] > util[best]) {
								best = l
							}
						}
						taken[best] = true
						sel = append(sel, best)
					}
					for i, f := range ref.FrequencyPlanSelected(sel, ch, 4e5) {
						ws = append(ws, h.offsets[e]+sel[i])
						wf = append(wf, f)
					}
					wu = append(wu, util...)
					for _, l := range sel {
						alpha[e][l]++
					}
					wa = append(wa, alpha[e]...)
				}
				gs, gf := h.PlanRound(j)
				requirePlan(t, what, gs, gf, ws, wf)
				gu, ga := h.SelectionDetail()
				if fmt.Sprint(ga) != fmt.Sprint(wa) {
					t.Fatalf("%s: decay counters %v, want %v", what, ga, wa)
				}
				for q := range wu {
					if math.Float64bits(gu[q]) != math.Float64bits(wu[q]) {
						t.Fatalf("%s: utility[%d] = %v, want %v", what, q, gu[q], wu[q])
					}
				}
			}
		}
	}
}

func requirePlan(t *testing.T, what string, gs []int, gf []float64, ws []int, wf []float64) {
	t.Helper()
	if len(gs) != len(ws) || len(gf) != len(wf) {
		t.Fatalf("%s: plan sizes %d/%d, want %d/%d", what, len(gs), len(gf), len(ws), len(wf))
	}
	for i := range ws {
		if gs[i] != ws[i] || math.Float64bits(gf[i]) != math.Float64bits(wf[i]) {
			t.Fatalf("%s: slot %d = (%d, %v), want (%d, %v)", what, i, gs[i], gf[i], ws[i], wf[i])
		}
	}
}

// TestHELCFLFlatCheckpointCompat pins the E = 1 wire form: ExportState is a
// bare core.SchedulerState gob (what flat checkpoints and deploy snapshots
// hold), and such a gob imports into a fresh planner that then makes the
// same next plan as the scheduler it was taken from.
func TestHELCFLFlatCheckpointCompat(t *testing.T) {
	devs := hierFleet(50, 4)
	ch := wireless.DefaultChannel()
	p, err := NewHELCFL(devs, ch, 4e5, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		p.PlanRound(j)
	}
	blob, err := p.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	var st core.SchedulerState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		t.Fatalf("E = 1 state is not a bare core.SchedulerState: %v", err)
	}
	if want := p.Scheduler().Appearances(); fmt.Sprint(st.Alpha) != fmt.Sprint(want) {
		t.Fatalf("exported α %v, want %v", st.Alpha, want)
	}

	// A bare scheduler state, as a flat checkpoint holds it.
	ref, err := core.NewScheduler(devs, ch, 4e5, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 7; j++ {
		ref.PlanRound(ch, 4e5)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ref.ExportState()); err != nil {
		t.Fatal(err)
	}
	resumed, err := NewHELCFL(devs, ch, 4e5, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.ImportState(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	ws, wf := ref.PlanRound(ch, 4e5)
	gs, gf := resumed.PlanRound(7)
	requirePlan(t, "resumed round 7", gs, gf, ws, wf)
}

// TestHierHELCFLShards checks the contiguous balanced partition, EdgeOf,
// and that each edge selects only from its own shard with fleet-global
// indices.
func TestHierHELCFLShards(t *testing.T) {
	devs := hierFleet(23, 2) // 23 over 4 edges: shards 6,6,6,5
	ch := wireless.DefaultChannel()
	h, err := NewHierHELCFL(devs, 4, ch, 4e5, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", h.NumEdges())
	}
	wantOffsets := []int{0, 6, 12, 18, 23}
	for i, w := range wantOffsets {
		if h.offsets[i] != w {
			t.Fatalf("offsets = %v, want %v", h.offsets, wantOffsets)
		}
	}
	for q := 0; q < len(devs); q++ {
		e := h.EdgeOf(q)
		if q < h.offsets[e] || q >= h.offsets[e+1] {
			t.Fatalf("EdgeOf(%d) = %d, but shard %d is [%d, %d)", q, e, e, h.offsets[e], h.offsets[e+1])
		}
	}
	for j := 0; j < 5; j++ {
		sel, freqs := h.PlanRound(j)
		if len(sel) != len(freqs) {
			t.Fatalf("round %d: %d selected, %d freqs", j, len(sel), len(freqs))
		}
		prevEdge := 0
		for _, q := range sel {
			if q < 0 || q >= len(devs) {
				t.Fatalf("round %d: selected fleet index %d out of range", j, q)
			}
			e := h.EdgeOf(q)
			if e < prevEdge {
				t.Fatalf("round %d: selection not edge-major (%v)", j, sel)
			}
			prevEdge = e
		}
		// Every edge contributes max(shard·C, 1) users.
		perEdge := make([]int, 4)
		for _, q := range sel {
			perEdge[h.EdgeOf(q)]++
		}
		for e, n := range perEdge {
			if n != 1 { // shards of 5–6 users at C = 0.1 → max(·, 1) = 1
				t.Fatalf("round %d: edge %d selected %d users, want 1", j, e, n)
			}
		}
	}

	if _, err := NewHierHELCFL(devs, 0, ch, 4e5, core.DefaultParams()); err == nil {
		t.Fatal("zero edges must be rejected")
	}
	if _, err := NewHierHELCFL(devs, len(devs)+1, ch, 4e5, core.DefaultParams()); err == nil {
		t.Fatal("more edges than devices must be rejected")
	}
}

// TestHierHELCFLStateRoundTrip checks export/import restores the exact
// selection trajectory across all edge shards.
func TestHierHELCFLStateRoundTrip(t *testing.T) {
	devs := hierFleet(60, 8)
	ch := wireless.DefaultChannel()
	orig, err := NewHierHELCFL(devs, 3, ch, 4e5, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 6; j++ {
		orig.PlanRound(j)
	}
	blob, err := orig.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewHierHELCFL(devs, 3, ch, 4e5, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ImportState(blob); err != nil {
		t.Fatal(err)
	}
	for j := 6; j < 12; j++ {
		a, af := orig.PlanRound(j)
		b, bf := restored.PlanRound(j)
		for i := range a {
			if a[i] != b[i] || af[i] != bf[i] {
				t.Fatalf("round %d: restored planner diverged", j)
			}
		}
	}
	// Shape mismatch: a 2-edge snapshot must not import into 3 edges.
	two, err := NewHierHELCFL(devs, 2, ch, 4e5, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := two.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ImportState(blob2); err == nil {
		t.Fatal("edge-count mismatch must be rejected")
	}
}
