package harness

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"helcfl/internal/obs/span"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := Quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = Quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("quartiles of powers of two = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if got := Spread([]float64{1, 2, 4, 8, 16}); got != (12-1.5)/4 {
		t.Fatalf("spread = %v, want %v", got, (12-1.5)/4)
	}
	if got := Spread([]float64{3}); got != 0 {
		t.Fatalf("spread of one value = %v, want 0", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		have bool
	}{
		{39, 0, false},  // p75 would rest on 9.75 samples
		{40, 75, true},  // exactly ten beyond p75
		{99, 75, true},  // p90 would rest on 9.9
		{100, 90, true}, // exactly ten beyond p90
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := TailPercentile(c.n)
		if ok != c.have || p != c.p {
			t.Errorf("TailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.have)
		}
	}
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	s := Summarize(samples)
	if s.Count != 1000 || s.P50 != 500 || s.TailP != 99 || s.Tail != 990 {
		t.Fatalf("Summarize(1..1000) = %+v", s)
	}
}

// rec builds a span record; times are in nanoseconds.
func rec(id, parent uint64, name string, start, dur int64) span.Rec {
	return span.Rec{Trace: 1, Span: id, Parent: parent, Name: name, StartNs: start, DurNs: dur}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	recs := []span.Rec{
		rec(1, 0, "round", 0, 100),
		rec(2, 1, "plan", 0, 10),
		// Two workers overlap on [20, 60): the round is covered once.
		rec(3, 1, "update", 10, 50),
		rec(4, 1, "update", 20, 50),
		// A grandchild shortens its parent's self time, not the round's.
		rec(5, 3, "forward", 10, 20),
		// A child running past its parent's end is clipped to it.
		rec(6, 1, "eval", 90, 30),
	}
	self := SelfByName(recs)
	want := map[string]int64{
		"round":   100 - (10 + 60 + 10), // [0,10) ∪ [10,70) ∪ [90,100)
		"plan":    10,
		"update":  (50 - 20) + 50,
		"forward": 20,
		"eval":    30,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	if got := CoveragePct(recs, "round"); got != 80 {
		t.Fatalf("coverage = %v, want 80", got)
	}
	if got := CoveragePct(recs, "absent"); got != 0 {
		t.Fatalf("coverage of an absent span = %v, want 0", got)
	}
	if got := DurationsMs(recs, "update"); !reflect.DeepEqual(got, []float64{50e-6, 50e-6}) {
		t.Fatalf("durations = %v", got)
	}
}

func TestTransportCountsBodyBytesBothWays(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		switch r.URL.Path {
		case "/upload":
			if len(body) != 1000 {
				t.Errorf("server read %d upload bytes, want 1000", len(body))
			}
			w.WriteHeader(http.StatusNoContent)
		case "/model":
			_, _ = w.Write(make([]byte, 70000)) // larger than one read buffer
		default:
			http.Error(w, "nope", http.StatusTeapot)
		}
	}))
	defer srv.Close()

	tr := &Transport{Base: http.DefaultTransport}
	client := &http.Client{Transport: tr}
	do := func(method, path string, body io.Reader) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadAll(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	do(http.MethodPost, "/upload?user=1", strings.NewReader(strings.Repeat("x", 1000)))
	do(http.MethodGet, "/model", nil)
	do(http.MethodGet, "/missing", nil)

	got := tr.Exchanges()
	if len(got) != 3 {
		t.Fatalf("%d exchanges recorded, want 3", len(got))
	}
	want := []struct {
		path      string
		req, resp int64
		status    int
	}{
		{"/upload", 1000, 0, http.StatusNoContent},
		{"/model", 0, 70000, http.StatusOK},
		{"/missing", 0, int64(len("nope\n")), http.StatusTeapot},
	}
	for i, w := range want {
		e := got[i]
		if e.Path != w.path || e.ReqBytes != w.req || e.RespBytes != w.resp || e.Status != w.status {
			t.Errorf("exchange %d = %+v, want %+v", i, e, w)
		}
		if e.Dur <= 0 {
			t.Errorf("exchange %d has duration %v", i, e.Dur)
		}
	}
}

func TestReportRoundTripsThroughJSON(t *testing.T) {
	in := &Report{
		Machine: Machine{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", CPUModel: "x", NumCPU: 2, GOMAXPROCS: 2, TensorWorkers: 2, Commit: "abc"},
		When:    "2026-01-02T03:04:05Z",
		Seed:    7, Seconds: 15, Repeat: 3,
		Workloads: []WorkloadReport{{
			Name: "fl_mlp", Seeds: []int64{7, 8, 9}, Correct: true, Attempted: 30, Failed: 0,
			WallS:    []float64{16.1, 16.4, 15.9},
			EndToEnd: map[string]Series{"rounds_per_s": NewSeries("rounds/s", []float64{42.5, 41.25, 43})},
			PerLayer: map[string]Series{"fl.step.p50_ms": NewSeries("ms", []float64{21.5, 22, 21.75})},
		}},
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := WriteReport(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("report changed in the round trip:\n in  %+v\n out %+v", in, out)
	}
	s := out.Workloads[0].EndToEnd["rounds_per_s"]
	if s.Median != 42.5 || s.Q1 != 41.25 || s.Q3 != 43 || math.Abs(s.Spread-1.75/42.5) > 1e-15 {
		t.Fatalf("series summary = %+v", s)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := MetricDef{Name: "round_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := MetricDef{Name: "rounds_per_s", Unit: "rounds/s", Better: "higher", Bound: 0.10}
	series := func(vs ...float64) Series { return NewSeries("x", vs) }
	cases := []struct {
		name      string
		def       MetricDef
		base, new Series
		want      string
	}{
		{"same", lower, series(10, 10.1, 9.9, 10, 10.05), series(10, 10.1, 9.9, 10, 10.05), WithinBound},
		{"slower beyond bound", lower, series(10, 10.1, 9.9, 10, 10.05), series(11.5, 11.6, 11.4, 11.5, 11.5), Regressed},
		{"throughput drop beyond bound", higher, series(100, 101, 99, 100, 100), series(85, 86, 84, 85, 85), Regressed},
		{"every run better", lower, series(10, 10.1, 9.9, 10, 10.05), series(9, 9.1, 8.9, 9, 9.05), Improved},
		{"noisy base", lower, series(10, 13, 8, 11, 9), series(10.2, 12.5, 8.5, 11, 9), Unresolved},
		{"median better than the base's spread", lower, series(10, 10.2, 9.8, 10.1, 9.9), series(9.5, 10, 9.4, 9.6, 9.5), Improved},
	}
	for _, c := range cases {
		if got := verdict(c.def, c.base, c.new); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}

	base := &Report{Workloads: []WorkloadReport{{Name: "w", EndToEnd: map[string]Series{"round_p50_ms": series(10, 10, 10)}}}}
	next := &Report{Workloads: []WorkloadReport{{Name: "w", EndToEnd: map[string]Series{"round_p50_ms": series(12, 12, 12)}}}}
	rows := Compare(base, next, []MetricDef{lower, higher})
	if len(rows) != 1 || rows[0].Ratio != 1.2 || rows[0].Verdict != Regressed || rows[0].Workload != "w" {
		t.Fatalf("rows = %+v", rows)
	}
}
