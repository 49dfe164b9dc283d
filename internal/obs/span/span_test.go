package span

import (
	"strings"
	"sync"
	"testing"
)

func TestStartEndRecordsHierarchy(t *testing.T) {
	r := NewRecorder(42, Options{})
	root := r.Start(Ref{}, "run")
	child := r.Start(root.Ref(), "round")
	child.SetInt("round", 3)
	child.SetFloat("model_sec", 1.5)
	child.SetStr("scheme", "HELCFL")
	child.End()
	root.End()

	recs := r.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("got %d spans, want 2", len(recs))
	}
	if recs[0].Name != "round" || recs[1].Name != "run" {
		t.Fatalf("unexpected order: %q, %q", recs[0].Name, recs[1].Name)
	}
	if recs[0].Trace != 42 || recs[1].Trace != 42 {
		t.Fatalf("trace ids: %d, %d", recs[0].Trace, recs[1].Trace)
	}
	if recs[0].Parent != recs[1].Span {
		t.Fatalf("child parent %d != root span %d", recs[0].Parent, recs[1].Span)
	}
	if v, ok := recs[0].IntAttr("round"); !ok || v != 3 {
		t.Fatalf("round attr: %d, %v", v, ok)
	}
	if v, ok := recs[0].FloatAttr("model_sec"); !ok || v != 1.5 {
		t.Fatalf("model_sec attr: %g, %v", v, ok)
	}
	if v, ok := recs[0].StrAttr("scheme"); !ok || v != "HELCFL" {
		t.Fatalf("scheme attr: %q, %v", v, ok)
	}
	if err := Validate(recs); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteParentAdoptsTrace(t *testing.T) {
	r := NewRecorder(7, Options{})
	remote := Ref{Trace: 99, Span: 5}
	sp := r.Start(remote, "http.server")
	sp.End()
	recs := r.Snapshot()
	if recs[0].Trace != 99 || recs[0].Parent != 5 {
		t.Fatalf("remote stitch: trace %d parent %d", recs[0].Trace, recs[0].Parent)
	}
	// Without a remote parent the recorder's own trace applies.
	sp2 := r.Start(Ref{}, "local")
	sp2.End()
	if recs := r.Snapshot(); recs[1].Trace != 7 {
		t.Fatalf("local trace %d, want 7", recs[1].Trace)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := NewRecorder(1, Options{Capacity: 4})
	for i := 0; i < 10; i++ {
		sp := r.Start(Ref{}, "s")
		sp.SetInt("i", int64(i))
		sp.End()
	}
	recs := r.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recs))
	}
	for j, rec := range recs {
		if v, _ := rec.IntAttr("i"); v != int64(6+j) {
			t.Fatalf("rec %d has i=%d, want %d (oldest-first order)", j, v, 6+j)
		}
	}
	if d := r.Dropped(); d != 6 {
		t.Fatalf("dropped %d, want 6", d)
	}
}

func TestDoubleEndIsNoop(t *testing.T) {
	r := NewRecorder(1, Options{})
	sp := r.Start(Ref{}, "once")
	sp.End()
	sp.End()
	if n := len(r.Snapshot()); n != 1 {
		t.Fatalf("double End recorded %d spans", n)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	sp := r.Start(Ref{}, "ignored")
	sp.SetInt("k", 1)
	sp.SetFloat("k", 1)
	sp.SetStr("k", "v")
	sp.End()
	if !sp.Ref().IsZero() {
		t.Fatal("nil recorder issued an ID")
	}
	if r.Snapshot() != nil || r.Dropped() != 0 || r.TraceID() != 0 || !r.Root().IsZero() {
		t.Fatal("nil recorder leaked state")
	}
}

// TestNilRecorderZeroAllocs pins the tentpole guarantee: with no Recorder
// installed, the full instrument-a-phase call pattern (Start, attrs, Ref,
// End) costs zero allocations.
func TestNilRecorderZeroAllocs(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		sp := r.Start(Ref{}, "phase")
		sp.SetInt("round", 1)
		sp.SetFloat("model_sec", 2.5)
		child := r.Start(sp.Ref(), "inner")
		child.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %.0f/op, want 0", allocs)
	}
}

func TestAttrOverflowDropped(t *testing.T) {
	r := NewRecorder(1, Options{})
	sp := r.Start(Ref{}, "s")
	for i := 0; i < maxAttrs+3; i++ {
		sp.SetInt("k", int64(i))
	}
	sp.End()
	if got := len(r.Snapshot()[0].Attrs); got != maxAttrs {
		t.Fatalf("kept %d attrs, want %d", got, maxAttrs)
	}
}

func TestFormatParseRefRoundTrip(t *testing.T) {
	refs := []Ref{{}, {Trace: 1, Span: 2}, {Trace: ^uint64(0), Span: 0xdeadbeef}}
	for _, want := range refs {
		s := FormatRef(want)
		got, err := ParseRef(s)
		if err != nil {
			t.Fatalf("ParseRef(%q): %v", s, err)
		}
		if got != want {
			t.Fatalf("round trip %q: got %+v want %+v", s, got, want)
		}
	}
	for _, bad := range []string{"", "xyz", strings.Repeat("0", 33), strings.Repeat("0", 16) + ":" + strings.Repeat("0", 16), strings.Repeat("g", 16) + "-" + strings.Repeat("0", 16)} {
		if _, err := ParseRef(bad); err == nil {
			t.Fatalf("ParseRef(%q) accepted", bad)
		}
	}
}

func TestJSONLExportAndRead(t *testing.T) {
	var sb strings.Builder
	jl := NewJSONL(&sb)
	r := NewRecorder(3, Options{Exporter: jl})
	parent := r.Start(Ref{}, "outer")
	child := r.Start(parent.Ref(), "inner")
	child.SetStr("key", "v")
	child.End()
	parent.End()
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("read %d recs, want 2", len(recs))
	}
	if err := Validate(recs); err != nil {
		t.Fatal(err)
	}
	if recs[0].Name != "inner" || recs[1].Name != "outer" {
		t.Fatalf("order: %q, %q", recs[0].Name, recs[1].Name)
	}
}

func TestReadTornTailTolerated(t *testing.T) {
	full := `{"trace":1,"span":1,"name":"a","start_ns":0,"dur_ns":1,"v":1}` + "\n"
	torn := full + `{"trace":1,"span":2,"name":"b","sta`
	recs, err := Read(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(recs) != 1 || recs[0].Name != "a" {
		t.Fatalf("torn tail: got %d recs", len(recs))
	}
	// A malformed line mid-stream is corruption, not truncation.
	if _, err := Read(strings.NewReader(`{"bad` + "\n" + full)); err == nil {
		t.Fatal("mid-stream corruption accepted")
	}
}

func TestReadSkipsNonSpanLines(t *testing.T) {
	input := `{"flightrec":1,"pid":7}` + "\n" +
		`{"trace":1,"span":1,"name":"a","start_ns":0,"dur_ns":1,"v":1}` + "\n" +
		`{"event":"RoundEnd","data":{"Round":0}}` + "\n"
	recs, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Name != "a" {
		t.Fatalf("got %d span recs", len(recs))
	}
}

func TestReadRejectsNewerSchema(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"trace":1,"span":1,"name":"a","v":99}` + "\n")); err == nil {
		t.Fatal("newer schema accepted")
	}
}

func TestValidateRejections(t *testing.T) {
	base := Rec{Trace: 1, Span: 1, Name: "a", V: 1}
	cases := []struct {
		name string
		recs []Rec
	}{
		{"zero span id", []Rec{{Trace: 1, Name: "a"}}},
		{"negative dur", []Rec{{Trace: 1, Span: 1, Name: "a", DurNs: -1}}},
		{"duplicate id", []Rec{base, base}},
		{"dangling parent", []Rec{{Trace: 1, Span: 2, Parent: 9, Name: "b"}}},
		{"bad attr kind", []Rec{{Trace: 1, Span: 1, Name: "a", Attrs: []Attr{{Key: "k", Kind: "x"}}}}},
	}
	for _, c := range cases {
		if err := Validate(c.recs); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestDurationStats(t *testing.T) {
	recs := make([]Rec, 0, 20)
	for i := 1; i <= 20; i++ {
		recs = append(recs, Rec{Name: "x", DurNs: int64(i) * 1e9})
	}
	recs = append(recs, Rec{Name: "other", DurNs: 1e12})
	s := DurationStats(recs, "x")
	if s.Count != 20 || s.MinSec != 1 || s.MaxSec != 20 {
		t.Fatalf("stats: %+v", s)
	}
	if s.P50Sec != 10 || s.P95Sec != 19 {
		t.Fatalf("percentiles: p50=%g p95=%g", s.P50Sec, s.P95Sec)
	}
	if s.TotalSec != 210 {
		t.Fatalf("total %g", s.TotalSec)
	}
	if z := DurationStats(recs, "absent"); z.Count != 0 {
		t.Fatalf("absent name: %+v", z)
	}
}

func TestConcurrentStartEnd(t *testing.T) {
	r := NewRecorder(1, Options{Capacity: 128})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := r.Start(r.Root(), "worker")
				sp.End()
			}
		}()
	}
	wg.Wait()
	if r.Dropped() != 800-128 {
		t.Fatalf("dropped %d, want %d", r.Dropped(), 800-128)
	}
	if err := Validate(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
}

func TestExportersDropNils(t *testing.T) {
	if Exporters(nil, nil) != nil {
		t.Fatal("all-nil Exporters not nil")
	}
	c := &Collector{}
	if Exporters(nil, c) != Exporter(c) {
		t.Fatal("single exporter not unwrapped")
	}
	c2 := &Collector{}
	multi := Exporters(c, c2)
	multi.ExportSpan(Rec{Name: "m", DurNs: 1})
	if len(c.Snapshot()) != 1 || len(c2.Snapshot()) != 1 {
		t.Fatal("multi exporter did not fan out")
	}
}
