package span

import (
	"fmt"
	"sort"
	"strings"
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

// ProfileEntry aggregates every span sharing one name.
type ProfileEntry struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	MinNs   int64  `json:"min_ns"`
	MaxNs   int64  `json:"max_ns"`
}

// Profile is the aggregated per-phase exporter: it folds spans into one
// entry per name. Safe for concurrent export.
type Profile struct {
	mu      sync.Mutex
	names   []string // insertion order, sorted on snapshot
	entries map[string]*ProfileEntry
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{entries: make(map[string]*ProfileEntry)}
}

// ExportSpan implements Exporter.
func (p *Profile) ExportSpan(rec Rec) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[rec.Name]
	if e == nil {
		e = &ProfileEntry{Name: rec.Name, MinNs: rec.DurNs, MaxNs: rec.DurNs}
		p.entries[rec.Name] = e
		p.names = append(p.names, rec.Name)
	}
	e.Count++
	e.TotalNs += rec.DurNs
	if rec.DurNs < e.MinNs {
		e.MinNs = rec.DurNs
	}
	if rec.DurNs > e.MaxNs {
		e.MaxNs = rec.DurNs
	}
}

// Snapshot returns the entries sorted by name.
func (p *Profile) Snapshot() []ProfileEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, len(p.names))
	copy(names, p.names)
	sort.Strings(names)
	out := make([]ProfileEntry, len(names))
	for i, n := range names {
		out[i] = *p.entries[n]
	}
	return out
}

// String renders the profile as an aligned table.
func (p *Profile) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %8s %12s %12s %12s %12s\n", "phase", "count", "total-s", "mean-s", "min-s", "max-s")
	for _, e := range p.Snapshot() {
		mean := 0.0
		if e.Count > 0 {
			mean = secs(e.TotalNs) / float64(e.Count)
		}
		fmt.Fprintf(&sb, "%-24s %8d %12.6f %12.6f %12.6f %12.6f\n",
			e.Name, e.Count, secs(e.TotalNs), mean, secs(e.MinNs), secs(e.MaxNs))
	}
	return sb.String()
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
