package deploy

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"helcfl/internal/device"
	"helcfl/internal/fl"
	"helcfl/internal/nn"
	"helcfl/internal/obs"
	"helcfl/internal/selection"
)

func TestMiddlewarePanicRecovery(t *testing.T) {
	reg := obs.NewRegistry()
	reqs := reg.CounterVec("helcfl_http_requests_total", "", "path")
	panics := reg.Counter("helcfl_http_panics_total", "")
	var mu sync.Mutex
	var logLines []string
	logf := func(format string, args ...interface{}) {
		mu.Lock()
		logLines = append(logLines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	mux.HandleFunc("/ok", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, "fine") })
	ts := httptest.NewServer(Middleware(mux, logf, reqs, panics, nil))
	defer ts.Close()

	// A panicking handler must yield a 500, not kill the server.
	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler returned %d, want 500", resp.StatusCode)
	}

	// The server is still alive and serving after the panic.
	resp, err = http.Get(ts.URL + "/ok")
	if err != nil {
		t.Fatalf("server died after panic: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "fine" {
		t.Fatalf("post-panic request: %d %q", resp.StatusCode, body)
	}

	if got := panics.Value(); got != 1 {
		t.Fatalf("panics counter = %g, want 1", got)
	}
	if got := reqs.With("/boom").Value(); got != 1 {
		t.Fatalf("/boom request count = %g, want 1", got)
	}
	if got := reqs.With("/ok").Value(); got != 1 {
		t.Fatalf("/ok request count = %g, want 1", got)
	}

	mu.Lock()
	defer mu.Unlock()
	var sawPanic, sawAccess bool
	for _, line := range logLines {
		if strings.Contains(line, "panic serving GET /boom") && strings.Contains(line, "kaboom") {
			sawPanic = true
		}
		if strings.Contains(line, "GET /ok 200") {
			sawAccess = true
		}
	}
	if !sawPanic || !sawAccess {
		t.Fatalf("log lines missing panic/access entries: %q", logLines)
	}
}

func TestMiddlewarePanicAfterWriteKeepsStatus(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/half", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		panic("too late for a 500")
	})
	ts := httptest.NewServer(Middleware(mux, nil, nil, nil, nil))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/half")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Headers were already sent; the middleware must not try to rewrite them.
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
}

func TestServerExposesObservabilityEndpoints(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Spec:          nn.ModelSpec{Kind: "logistic", InC: 2, H: 4, W: 4, Classes: 4},
		Seed:          1,
		ExpectedUsers: 2,
		Rounds:        1,
		NewPlanner: func(devs []*device.Device) (fl.Planner, error) {
			return selection.NewClassicFL(devs, 1.0, newSeededRand(1)), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	// /metrics exposes the server families, including the request counter
	// incremented by the healthz hit above.
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`helcfl_http_requests_total{path="/healthz"} 1`,
		"helcfl_server_round 0",
		"helcfl_server_uploads_total 0",
		"helcfl_http_panics_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
	// The pprof index is mounted (the CPU profile endpoint hangs for its
	// sampling window, so probe the index and symbol endpoints instead).
	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "profile") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	if code, _ := get("/debug/pprof/symbol"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/symbol = %d", code)
	}

	// Two servers with default (nil) Metrics must not share registries.
	srv2, err := NewServer(ServerConfig{
		Spec:          nn.ModelSpec{Kind: "logistic", InC: 2, H: 4, W: 4, Classes: 4},
		Seed:          2,
		ExpectedUsers: 2,
		Rounds:        1,
		NewPlanner: func(devs []*device.Device) (fl.Planner, error) {
			return selection.NewClassicFL(devs, 1.0, newSeededRand(2)), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv.metrics == srv2.metrics {
		t.Fatal("servers unexpectedly share a metrics registry")
	}
}
