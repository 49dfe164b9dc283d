package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %g", got)
	}
	// Idempotent registration returns the same collector.
	if r.Counter("c_total", "help") != c {
		t.Fatal("re-registration returned a new counter")
	}
	g := r.Gauge("g", "")
	g.Set(4)
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g", got)
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add must panic")
		}
	}()
	new(Counter).Add(-1)
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("x", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-106.5) > 1e-12 {
		t.Fatalf("sum = %g", h.Sum())
	}
	s := h.Snapshot()
	want := []uint64{1, 2, 1, 1} // ≤1, ≤2, ≤4, +Inf
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
}

func TestHistogramValidatesBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}, {math.NaN()}, {math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v must panic", bounds)
				}
			}()
			newHistogram(bounds)
		}()
	}
}

func TestSpanObservesSeconds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("span_seconds", "", []float64{10})
	sp := StartSpan(h)
	time.Sleep(time.Millisecond)
	if d := sp.End(); d <= 0 {
		t.Fatalf("duration = %v", d)
	}
	if h.Count() != 1 || h.Sum() <= 0 {
		t.Fatalf("histogram after span: count=%d sum=%g", h.Count(), h.Sum())
	}
	// A nil-histogram span is a safe no-op.
	StartSpan(nil).End()
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.5, 2, 3)
	want := []float64{0.5, 1, 2}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("buckets = %v", b)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_rounds_total", "Rounds completed.").Add(3)
	r.Gauge("app_round", "").Set(2)
	r.CounterVec("app_energy_joules_total", "Energy by kind.", "kind").With("compute").Add(1.5)
	r.CounterVec("app_energy_joules_total", "Energy by kind.", "kind").With("upload").Add(0.5)
	h := r.Histogram("app_delay_seconds", "", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP app_rounds_total Rounds completed.",
		"# TYPE app_rounds_total counter",
		"app_rounds_total 3",
		"app_round 2",
		"# TYPE app_energy_joules_total counter",
		`app_energy_joules_total{kind="compute"} 1.5`,
		`app_energy_joules_total{kind="upload"} 0.5`,
		"# TYPE app_delay_seconds histogram",
		`app_delay_seconds_bucket{le="1"} 1`,
		`app_delay_seconds_bucket{le="2"} 1`,
		`app_delay_seconds_bucket{le="+Inf"} 2`,
		"app_delay_seconds_sum 5.5",
		"app_delay_seconds_count 2",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families appear in sorted order for deterministic scraping.
	if strings.Index(out, "app_delay_seconds") > strings.Index(out, "app_rounds_total") {
		t.Fatal("families not sorted")
	}
}

func TestHandlerServesMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "h_total 1") {
		t.Fatalf("body = %q", buf[:n])
	}
}

func TestDefaultRegistryIsStable(t *testing.T) {
	if Default() != Default() {
		t.Fatal("default registry not a singleton")
	}
}
