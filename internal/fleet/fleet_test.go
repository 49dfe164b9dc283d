package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"helcfl/internal/grid"
	"helcfl/internal/obs"
)

// testResult is the payload the test grids compute: the cell key plus a
// value derived from the cell's own RNG, so any two honest executions of
// the same cell agree and misplaced merges are visible.
type testResult struct {
	Key string  `json:"key"`
	Val float64 `json:"val"`
}

func testEncode(v any) ([]byte, error) { return json.Marshal(v) }
func testDecode(b []byte) (any, error) { var r testResult; err := json.Unmarshal(b, &r); return r, err }

// testCells builds n deterministic cells.
func testCells(n int) []grid.Cell {
	cells := make([]grid.Cell, n)
	for i := range cells {
		cells[i] = grid.Cell{
			Experiment: "unit", Preset: "tiny", Setting: "IID", Scheme: "HELCFL",
			Variant: fmt.Sprintf("cell=%d", i), Seed: 1,
		}
		key := cells[i].Key()
		cells[i].Run = func(_ context.Context, rng *rand.Rand) (any, error) {
			return testResult{Key: key, Val: rng.Float64()}, nil
		}
	}
	return cells
}

// newTestCoordinator builds a coordinator plus its HTTP server.
func newTestCoordinator(t *testing.T, cfg CoordinatorConfig) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.Decode == nil {
		cfg.Decode = testDecode
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { _ = c.Close() })
	return c, srv
}

// post is the raw-protocol helper for handler-level tests.
func post(t *testing.T, url, path string, body, out any) int {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, url+path, bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func lease(t *testing.T, url, worker string) LeaseResponse {
	t.Helper()
	var lr LeaseResponse
	if code := post(t, url, PathLease, LeaseRequest{Worker: worker}, &lr); code != http.StatusOK {
		t.Fatalf("lease: status %d", code)
	}
	return lr
}

// completeBody fabricates the completion a worker would send for cells[i].
func completeBody(t *testing.T, cells []grid.Cell, lr LeaseResponse, worker string) CompleteRequest {
	t.Helper()
	v, err := cells[lr.Index].Run(context.Background(), cells[lr.Index].RNG())
	if err != nil {
		t.Fatalf("cell run: %v", err)
	}
	enc, err := testEncode(v)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return CompleteRequest{Worker: worker, Index: lr.Index, Token: lr.Token, Result: enc}
}

// serialResults runs the same cells through the single-process Runner.
func serialResults(t *testing.T, cells []grid.Cell) []any {
	t.Helper()
	res, err := (&grid.Runner{Parallel: 1}).Run(context.Background(), cells)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	return res
}

func TestLeaseCompleteMergesLikeRunner(t *testing.T) {
	cells := testCells(4)
	c, srv := newTestCoordinator(t, CoordinatorConfig{Cells: cells})
	for range cells {
		lr := lease(t, srv.URL, "w0")
		if lr.State != StateGranted {
			t.Fatalf("state %q, want granted", lr.State)
		}
		if code := post(t, srv.URL, PathComplete, completeBody(t, cells, lr, "w0"), nil); code != http.StatusNoContent {
			t.Fatalf("complete: status %d", code)
		}
	}
	if lr := lease(t, srv.URL, "w0"); lr.State != StateDone {
		t.Fatalf("state %q after sweep, want done", lr.State)
	}
	got, err := c.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	want := serialResults(t, cells)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged results differ from serial Runner:\n got %v\nwant %v", got, want)
	}
}

func TestDuplicateCompletionRejected(t *testing.T) {
	cells := testCells(2)
	c, srv := newTestCoordinator(t, CoordinatorConfig{Cells: cells})
	lr := lease(t, srv.URL, "w0")
	body := completeBody(t, cells, lr, "w0")
	if code := post(t, srv.URL, PathComplete, body, nil); code != http.StatusNoContent {
		t.Fatalf("first complete: status %d", code)
	}
	// The retried (or duplicated) completion must not merge twice.
	if code := post(t, srv.URL, PathComplete, body, nil); code != http.StatusConflict {
		t.Fatalf("duplicate complete: status %d, want 409", code)
	}
	if rem := c.Remaining(); rem != 1 {
		t.Fatalf("remaining %d after one unique completion, want 1", rem)
	}
}

func TestExpiredLeaseIsReassignedAndStaleCompletionFenced(t *testing.T) {
	cells := testCells(1)
	c, srv := newTestCoordinator(t, CoordinatorConfig{Cells: cells, LeaseTTL: 30 * time.Millisecond})
	first := lease(t, srv.URL, "doomed")
	time.Sleep(60 * time.Millisecond)
	second := lease(t, srv.URL, "heir")
	if second.State != StateGranted || second.Index != first.Index {
		t.Fatalf("expired lease not reassigned: %+v", second)
	}
	if second.Token <= first.Token {
		t.Fatalf("reassignment must bump the fencing token: %d then %d", first.Token, second.Token)
	}
	// The presumed-dead worker comes back after the re-grant: fenced.
	if code := post(t, srv.URL, PathComplete, completeBody(t, cells, first, "doomed"), nil); code != http.StatusConflict {
		t.Fatalf("stale complete: status %d, want 409", code)
	}
	if rem := c.Remaining(); rem != 1 {
		t.Fatalf("stale completion must not merge (remaining %d)", rem)
	}
	if code := post(t, srv.URL, PathComplete, completeBody(t, cells, second, "heir"), nil); code != http.StatusNoContent {
		t.Fatalf("heir complete: status %d", code)
	}
	if rem := c.Remaining(); rem != 0 {
		t.Fatalf("remaining %d, want 0", rem)
	}
}

func TestExpiredButNotReassignedLeaseStillCompletes(t *testing.T) {
	// An expired lease only becomes invalid once the cell is re-granted;
	// until then the slow worker's finished work is accepted, not wasted.
	cells := testCells(1)
	c, srv := newTestCoordinator(t, CoordinatorConfig{Cells: cells, LeaseTTL: 20 * time.Millisecond})
	lr := lease(t, srv.URL, "slow")
	time.Sleep(40 * time.Millisecond)
	if code := post(t, srv.URL, PathComplete, completeBody(t, cells, lr, "slow"), nil); code != http.StatusNoContent {
		t.Fatalf("slow complete: status %d, want 204", code)
	}
	if rem := c.Remaining(); rem != 0 {
		t.Fatalf("remaining %d, want 0", rem)
	}
}

func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	cells := testCells(1)
	_, srv := newTestCoordinator(t, CoordinatorConfig{Cells: cells, LeaseTTL: 80 * time.Millisecond})
	lr := lease(t, srv.URL, "beater")
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		if code := post(t, srv.URL, PathHeartbeat, HeartbeatRequest{Worker: "beater", Index: lr.Index, Token: lr.Token}, nil); code != http.StatusNoContent {
			t.Fatalf("heartbeat: status %d", code)
		}
		time.Sleep(25 * time.Millisecond)
	}
	// Well past the original TTL, the lease must still be held.
	if other := lease(t, srv.URL, "rival"); other.State != StateWait {
		t.Fatalf("heartbeated lease was lost: rival got %+v", other)
	}
	// After a fence the heartbeat answers 409 so the worker abandons.
	time.Sleep(120 * time.Millisecond)
	regrant := lease(t, srv.URL, "rival")
	if regrant.State != StateGranted {
		t.Fatalf("lease did not expire after heartbeats stopped: %+v", regrant)
	}
	if code := post(t, srv.URL, PathHeartbeat, HeartbeatRequest{Worker: "beater", Index: lr.Index, Token: lr.Token}, nil); code != http.StatusConflict {
		t.Fatalf("fenced heartbeat: status %d, want 409", code)
	}
}

func TestJournalResumeRestoresDoneCellsAndTokens(t *testing.T) {
	cells := testCells(3)
	journal := filepath.Join(t.TempDir(), "fleet.wal")

	c1, srv1 := newTestCoordinator(t, CoordinatorConfig{Cells: cells, JournalPath: journal})
	done := lease(t, srv1.URL, "w0")
	if code := post(t, srv1.URL, PathComplete, completeBody(t, cells, done, "w0"), nil); code != http.StatusNoContent {
		t.Fatalf("complete: status %d", code)
	}
	granted := lease(t, srv1.URL, "w0") // in flight at crash time
	srv1.Close()
	if err := c1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// A fresh start over a half-finished journal must be refused.
	if _, err := NewCoordinator(CoordinatorConfig{Cells: cells, Decode: testDecode, JournalPath: journal}); err == nil {
		t.Fatal("fresh start over an existing journal should error without Resume")
	}
	// A different plan must be refused even with Resume.
	if _, err := NewCoordinator(CoordinatorConfig{Cells: testCells(4), Decode: testDecode, JournalPath: journal, Resume: true}); err == nil {
		t.Fatal("resume against a different plan should error")
	}

	c2, srv2 := newTestCoordinator(t, CoordinatorConfig{Cells: cells, JournalPath: journal, Resume: true})
	if rem := c2.Remaining(); rem != 2 {
		t.Fatalf("remaining %d after resume, want 2", rem)
	}
	// The crashed-through grant survives: its old token still completes.
	if code := post(t, srv2.URL, PathComplete, completeBody(t, cells, granted, "w0"), nil); code != http.StatusNoContent {
		t.Fatalf("complete under pre-crash token: status %d", code)
	}
	// Tokens never regress across a restart.
	next := lease(t, srv2.URL, "w1")
	if next.State != StateGranted || next.Token <= granted.Token {
		t.Fatalf("post-resume token %d must exceed pre-crash token %d", next.Token, granted.Token)
	}
	if code := post(t, srv2.URL, PathComplete, completeBody(t, cells, next, "w1"), nil); code != http.StatusNoContent {
		t.Fatalf("complete: status %d", code)
	}
	got, err := c2.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if want := serialResults(t, cells); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-resume merge differs from serial run:\n got %v\nwant %v", got, want)
	}
}

func TestJournalResumeAcrossDuplicateAndFencedHistory(t *testing.T) {
	// Replay a journal whose history includes a reassignment, then prove
	// the revived coordinator still fences the original token.
	cells := testCells(1)
	journal := filepath.Join(t.TempDir(), "fleet.wal")
	c1, srv1 := newTestCoordinator(t, CoordinatorConfig{Cells: cells, JournalPath: journal, LeaseTTL: 20 * time.Millisecond})
	first := lease(t, srv1.URL, "w0")
	time.Sleep(40 * time.Millisecond)
	second := lease(t, srv1.URL, "w1")
	if second.Token <= first.Token {
		t.Fatalf("expected a reassignment, got %+v", second)
	}
	srv1.Close()
	_ = c1.Close()

	_, srv2 := newTestCoordinator(t, CoordinatorConfig{Cells: cells, JournalPath: journal, Resume: true, LeaseTTL: time.Minute})
	if code := post(t, srv2.URL, PathComplete, completeBody(t, cells, first, "w0"), nil); code != http.StatusConflict {
		t.Fatalf("pre-reassignment token after resume: status %d, want 409", code)
	}
	if code := post(t, srv2.URL, PathComplete, completeBody(t, cells, second, "w1"), nil); code != http.StatusNoContent {
		t.Fatalf("latest token after resume: status %d, want 204", code)
	}
}

func TestWorkersSweepMatchesSerialRunner(t *testing.T) {
	cells := testCells(24)
	c, srv := newTestCoordinator(t, CoordinatorConfig{Cells: cells})
	var wg sync.WaitGroup
	workerErrs := make([]error, 3)
	for i := range workerErrs {
		w, err := NewWorker(WorkerConfig{
			Coordinator: srv.URL, Name: fmt.Sprintf("w%d", i), Seed: int64(i),
			Resolve: func(PlanInfo) ([]grid.Cell, error) { return testCells(24), nil },
			Encode:  testEncode,
		})
		if err != nil {
			t.Fatalf("NewWorker: %v", err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); workerErrs[i] = w.Run(context.Background()) }()
	}
	got, err := c.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if want := serialResults(t, cells); !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet merge differs from serial Runner:\n got %v\nwant %v", got, want)
	}
}

func TestWorkerRejectsSkewedPlan(t *testing.T) {
	_, srv := newTestCoordinator(t, CoordinatorConfig{Cells: testCells(4)})
	w, err := NewWorker(WorkerConfig{
		Coordinator: srv.URL, Name: "skewed",
		Resolve: func(PlanInfo) ([]grid.Cell, error) { return testCells(5), nil },
		Encode:  testEncode,
	})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	if err := w.Run(context.Background()); err == nil {
		t.Fatal("a worker whose rebuilt plan disagrees must refuse to lease")
	}
}

func TestWorkerDrainStopsLeasing(t *testing.T) {
	cells := testCells(8)
	c, srv := newTestCoordinator(t, CoordinatorConfig{Cells: cells})
	w, err := NewWorker(WorkerConfig{
		Coordinator: srv.URL, Name: "drainer",
		Resolve: func(PlanInfo) ([]grid.Cell, error) { return testCells(8), nil },
		Encode:  testEncode,
	})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	w.Drain() // drain before the first lease: worker must exit with no work done
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("drained Run: %v", err)
	}
	if w.Completed() != 0 {
		t.Fatalf("drained worker completed %d cells, want 0", w.Completed())
	}
	if rem := c.Remaining(); rem != len(cells) {
		t.Fatalf("remaining %d, want %d", rem, len(cells))
	}
}

func TestWorkerReportsDeterministicCellFailure(t *testing.T) {
	boom := errors.New("cell is broken")
	mkCells := func() []grid.Cell {
		cells := testCells(2)
		orig := cells[1].Run
		cells[1].Run = func(ctx context.Context, rng *rand.Rand) (any, error) {
			_, _ = orig(ctx, rng)
			return nil, boom
		}
		return cells
	}
	c, srv := newTestCoordinator(t, CoordinatorConfig{Cells: mkCells()})
	w, err := NewWorker(WorkerConfig{
		Coordinator: srv.URL, Name: "w0",
		Resolve: func(PlanInfo) ([]grid.Cell, error) { return mkCells(), nil },
		Encode:  testEncode,
	})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	res, err := c.Wait(context.Background())
	var errs grid.Errors
	if !errors.As(err, &errs) || len(errs) != 1 || errs[0].Index != 1 {
		t.Fatalf("Wait error = %v, want one grid.CellError at index 1", err)
	}
	if res[0] == nil {
		t.Fatal("successful cell's result must still be populated")
	}
}

// TestWorkerReportsEncodeFailure pins that a result the worker cannot
// encode fails its cell at once, like a Run error, instead of ending the
// worker and leaving Wait blocked on a cell nobody will complete.
func TestWorkerReportsEncodeFailure(t *testing.T) {
	cells := testCells(3)
	bad := cells[1].Key()
	c, srv := newTestCoordinator(t, CoordinatorConfig{Cells: cells})
	w, err := NewWorker(WorkerConfig{
		Coordinator: srv.URL, Name: "w0",
		Resolve: func(PlanInfo) ([]grid.Cell, error) { return testCells(3), nil },
		Encode: func(v any) ([]byte, error) {
			if v.(testResult).Key == bad {
				return nil, errors.New("unencodable")
			}
			return testEncode(v)
		},
	})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(context.Background()) }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = c.Wait(ctx)
	var errs grid.Errors
	if !errors.As(err, &errs) || len(errs) != 1 || errs[0].Index != 1 || errs[0].Key != bad {
		t.Fatalf("Wait error = %v, want one grid.CellError for %s", err, bad)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestWaitHonorsContext(t *testing.T) {
	c, _ := newTestCoordinator(t, CoordinatorConfig{Cells: testCells(1)})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait: %v, want context.Canceled", err)
	}
}

func TestCoordinatorMetrics(t *testing.T) {
	cells := testCells(2)
	reg := newTestRegistry()
	c, srv := newTestCoordinator(t, CoordinatorConfig{Cells: cells, LeaseTTL: 25 * time.Millisecond, Metrics: reg})
	first := lease(t, srv.URL, "w0")
	time.Sleep(50 * time.Millisecond)
	second := lease(t, srv.URL, "w1") // reassignment of the expired lease
	if second.Index != first.Index {
		t.Fatalf("expected reassignment of cell %d, got %+v", first.Index, second)
	}
	post(t, srv.URL, PathComplete, completeBody(t, cells, first, "w0"), nil) // stale: fenced by the re-grant
	post(t, srv.URL, PathComplete, completeBody(t, cells, second, "w1"), nil)
	post(t, srv.URL, PathComplete, completeBody(t, cells, second, "w1"), nil) // duplicate
	third := lease(t, srv.URL, "w0")
	post(t, srv.URL, PathComplete, completeBody(t, cells, third, "w0"), nil)
	<-c.doneCh

	text := scrape(t, reg)
	for metric, want := range map[string]string{
		"helcfl_fleet_leases_granted_total":                 "3",
		"helcfl_fleet_leases_expired_total":                 "1",
		"helcfl_fleet_leases_reassigned_total":              "1",
		"helcfl_fleet_cells_completed_total":                "2",
		"helcfl_fleet_duplicate_completions_rejected_total": "1",
		"helcfl_fleet_stale_completions_rejected_total":     "1",
		"helcfl_fleet_cells_done":                           "2",
	} {
		assertMetric(t, text, metric, want)
	}
}

// newTestRegistry, scrape, and assertMetric adapt the obs registry's text
// exposition for assertions.
func newTestRegistry() *obs.Registry { return obs.NewRegistry() }

func scrape(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return sb.String()
}

func assertMetric(t *testing.T, text, name, want string) {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			if got := strings.TrimPrefix(line, name+" "); got != want {
				t.Errorf("%s = %s, want %s", name, got, want)
			}
			return
		}
	}
	t.Errorf("metric %s not exposed", name)
}
