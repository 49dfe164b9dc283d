package trace

import (
	"fmt"
	"sort"

	"helcfl/internal/report"
	"helcfl/internal/stats"
)

// Summary aggregates one scheme's records from a trace.
type Summary struct {
	Scheme       string
	Rounds       int
	TotalTime    float64
	TotalEnergy  float64
	ComputeShare float64 // fraction of energy spent computing
	Delay        stats.Summary
	BestAccuracy float64
}

// Summarize groups records by scheme and aggregates each group. Schemes
// are returned in first-appearance order.
func Summarize(recs []Record) []Summary {
	order := []string{}
	byScheme := map[string][]Record{}
	for _, r := range recs {
		if _, ok := byScheme[r.Scheme]; !ok {
			order = append(order, r.Scheme)
		}
		byScheme[r.Scheme] = append(byScheme[r.Scheme], r)
	}
	out := make([]Summary, 0, len(order))
	for _, scheme := range order {
		rs := byScheme[scheme]
		s := Summary{Scheme: scheme, Rounds: len(rs)}
		delays := make([]float64, len(rs))
		var compute float64
		for i, r := range rs {
			delays[i] = r.DelaySec
			s.TotalTime += r.DelaySec
			s.TotalEnergy += r.EnergyJ
			compute += r.ComputeJ
			if r.Evaluated && r.TestAccuracy > s.BestAccuracy {
				s.BestAccuracy = r.TestAccuracy
			}
		}
		if s.TotalEnergy > 0 {
			s.ComputeShare = compute / s.TotalEnergy
		}
		s.Delay = stats.Summarize(delays)
		out = append(out, s)
	}
	return out
}

// RenderSummaries produces a comparison table over per-scheme summaries.
func RenderSummaries(sums []Summary) *report.Table {
	tb := report.NewTable("Trace summary",
		"scheme", "rounds", "total delay", "total energy (J)", "compute share",
		"round delay (mean ± std)", "best accuracy")
	for _, s := range sums {
		tb.AddRow(
			s.Scheme,
			fmt.Sprintf("%d", s.Rounds),
			fmt.Sprintf("%.1fmin", s.TotalTime/60),
			fmt.Sprintf("%.1f", s.TotalEnergy),
			fmt.Sprintf("%.0f%%", s.ComputeShare*100),
			fmt.Sprintf("%.2fs ± %.2f", s.Delay.Mean, s.Delay.Std),
			fmt.Sprintf("%.2f%%", s.BestAccuracy*100),
		)
	}
	return tb
}

// AccuracyChart renders accuracy-vs-round for every scheme in the trace.
func AccuracyChart(recs []Record) *report.LineChart {
	chart := report.NewLineChart("Trace: test accuracy vs round", "round", "accuracy")
	order := []string{}
	pts := map[string][][2]float64{}
	for _, r := range recs {
		if !r.Evaluated {
			continue
		}
		if _, ok := pts[r.Scheme]; !ok {
			order = append(order, r.Scheme)
		}
		pts[r.Scheme] = append(pts[r.Scheme], [2]float64{float64(r.Round), r.TestAccuracy})
	}
	sort.Strings(order)
	for _, scheme := range order {
		ps := pts[scheme]
		xs := make([]float64, len(ps))
		ys := make([]float64, len(ps))
		for i, p := range ps {
			xs[i], ys[i] = p[0], p[1]
		}
		chart.Add(report.Series{Name: scheme, X: xs, Y: ys})
	}
	return chart
}
