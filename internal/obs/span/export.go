package span

import (
	"sort"
	"sync"
)

// Exporters fans out to several exporters; nils are dropped. Returns nil
// when nothing remains, so callers can pass the result straight to
// Options.Exporter.
func Exporters(exps ...Exporter) Exporter {
	var kept []Exporter
	for _, e := range exps {
		if e != nil {
			kept = append(kept, e)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return multiExporter(kept)
}

type multiExporter []Exporter

func (m multiExporter) ExportSpan(rec Rec) {
	for _, e := range m {
		e.ExportSpan(rec)
	}
}

// Collector buffers every exported span in memory, unbounded — unlike the
// recorder ring it never drops. Used by tests and the bench harness to
// compute duration statistics after a run.
type Collector struct {
	mu   sync.Mutex
	recs []Rec
}

// ExportSpan implements Exporter.
func (c *Collector) ExportSpan(rec Rec) {
	c.mu.Lock()
	c.recs = append(c.recs, rec)
	c.mu.Unlock()
}

// Snapshot returns a copy of the collected spans in export order.
func (c *Collector) Snapshot() []Rec {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Rec, len(c.recs))
	copy(out, c.recs)
	return out
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// Stats summarizes the duration distribution of one span name, in
// seconds (helcfl-inspect trace prints one row per phase).
type Stats struct {
	Count    int     `json:"count"`
	MinSec   float64 `json:"min_sec"`
	P50Sec   float64 `json:"p50_sec"`
	P95Sec   float64 `json:"p95_sec"`
	MaxSec   float64 `json:"max_sec"`
	TotalSec float64 `json:"total_sec"`
}

// DurationStats computes Stats over every rec matching name. Percentiles
// use the nearest-rank method on the sorted durations; the zero Stats is
// returned when nothing matches.
func DurationStats(recs []Rec, name string) Stats {
	var durs []int64
	var total int64
	for _, r := range recs {
		if r.Name != name {
			continue
		}
		durs = append(durs, r.DurNs)
		total += r.DurNs
	}
	if len(durs) == 0 {
		return Stats{}
	}
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	rank := func(p float64) int64 {
		i := int(p*float64(len(durs))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(durs) {
			i = len(durs) - 1
		}
		return durs[i]
	}
	return Stats{
		Count:    len(durs),
		MinSec:   secs(durs[0]),
		P50Sec:   secs(rank(0.50)),
		P95Sec:   secs(rank(0.95)),
		MaxSec:   secs(durs[len(durs)-1]),
		TotalSec: secs(total),
	}
}
