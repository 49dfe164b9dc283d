package harness

import (
	"sort"

	"helcfl/internal/obs/span"
)

// covered returns how many nanoseconds of [start, end) the child spans
// cover, counting overlapping children (parallel workers) once.
func covered(start, end int64, children []span.Rec) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.StartNs, c.StartNs+c.DurNs
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			if v.hi > curHi {
				curHi = v.hi
			}
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

func childrenByParent(recs []span.Rec) map[uint64][]span.Rec {
	kids := make(map[uint64][]span.Rec)
	for _, r := range recs {
		if r.Parent != 0 {
			kids[r.Parent] = append(kids[r.Parent], r)
		}
	}
	return kids
}

// SelfByName sums, per span name, each span's self time: its duration minus
// the part of that interval its child spans cover.
func SelfByName(recs []span.Rec) map[string]int64 {
	kids := childrenByParent(recs)
	out := make(map[string]int64)
	for _, r := range recs {
		out[r.Name] += r.DurNs - covered(r.StartNs, r.StartNs+r.DurNs, kids[r.Span])
	}
	return out
}

// CoveragePct is the share of the named spans' time that sits under a child
// span, in percent: the part of a round the trace can attribute. 0 when no
// span has that name.
func CoveragePct(recs []span.Rec, name string) float64 {
	kids := childrenByParent(recs)
	var dur, cov int64
	for _, r := range recs {
		if r.Name == name {
			dur += r.DurNs
			cov += covered(r.StartNs, r.StartNs+r.DurNs, kids[r.Span])
		}
	}
	if dur == 0 {
		return 0
	}
	return 100 * float64(cov) / float64(dur)
}

// DurationsMs returns the durations of every span with the given name, in
// milliseconds, in recording order.
func DurationsMs(recs []span.Rec, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Name == name {
			out = append(out, float64(r.DurNs)/1e6)
		}
	}
	return out
}
