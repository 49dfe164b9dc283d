package deploy

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"helcfl/internal/chaos"
	"helcfl/internal/core"
	"helcfl/internal/device"
	"helcfl/internal/fl"
	"helcfl/internal/selection"
	"helcfl/internal/wireless"
)

// Satellite: client lifecycle robustness — context propagation, typed
// shutdown errors, and the raw HTTP idempotency contract the retry layer
// depends on.

// newTestServer builds a server over env's planner and serves it on loopback.
func newTestServer(t *testing.T, env *confEnv, rounds int) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Spec:          env.spec,
		Seed:          env.seed,
		ExpectedUsers: env.users,
		Rounds:        rounds,
		NewPlanner: func(devs []*device.Device) (fl.Planner, error) {
			return env.newPlanner(devs)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func newTestClient(t *testing.T, env *confEnv, ts *httptest.Server, q int, cfg ClientConfig) *Client {
	t.Helper()
	cfg.BaseURL = ts.URL
	cfg.Info = env.clientInfo(q)
	cfg.Data = env.userData[q]
	cfg.Spec = env.spec
	if cfg.LR == 0 {
		cfg.LR = env.lr
	}
	if cfg.LocalSteps == 0 {
		cfg.LocalSteps = 1
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = time.Millisecond
	}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestClientContextCancel: cancelling the context stops a client that is
// stuck polling (the fleet never completes registration) with ctx.Err().
func TestClientContextCancel(t *testing.T) {
	env := newConfEnv(t, 2, 1)
	_, ts := newTestServer(t, env, 1)

	// Only user 0 shows up, so the server stays in PhaseRegistering and the
	// client polls forever — until the context fires.
	c := newTestClient(t, env, ts, 0, ClientConfig{PollInterval: 2 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.RunContext(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client did not stop after cancellation")
	}
}

// TestClientServerStopTypedError: when the server goes away mid-campaign the
// client fails with an error wrapping ErrUnavailable — a typed signal callers
// can match — instead of an opaque transport string or a hang.
func TestClientServerStopTypedError(t *testing.T) {
	env := newConfEnv(t, 1, 1)
	env.fraction = 1.0
	_, ts := newTestServer(t, env, 100000) // far more rounds than we let run

	// Slow every model fetch so the campaign is guaranteed to be mid-round
	// when the listener dies.
	script := chaos.NewScript(chaos.Rule{
		Path: "/model", Round: chaos.Any, User: chaos.Any,
		Fault: chaos.FaultLatency, Latency: 5 * time.Millisecond,
	})
	c := newTestClient(t, env, ts, 0, ClientConfig{
		MaxRetries:  2,
		BaseBackoff: time.Millisecond,
		HTTPClient:  chaos.NewTransport(script, 0).Client(),
	})
	done := make(chan error, 1)
	go func() { done <- c.Run() }()

	// Wait until training is underway, then pull the plug.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("server never reached the training phase")
		}
		resp, err := http.Get(ts.URL + "/status")
		if err != nil {
			t.Fatal(err)
		}
		var st StatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Phase == PhaseTraining && st.Round >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ts.CloseClientConnections()
	ts.Close()

	select {
	case err := <-done:
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("client returned %v, want ErrUnavailable", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client did not fail after server shutdown")
	}
}

// TestRegisterIdempotentAfterTrainingStarts pins the raw HTTP contract: a
// registered device re-registering after the phase flipped (its original ack
// was lost) gets 200, while a stranger gets 409.
func TestRegisterIdempotentAfterTrainingStarts(t *testing.T) {
	env := newConfEnv(t, 2, 1)
	_, ts := newTestServer(t, env, 1)

	post := func(req RegisterRequest) int {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/register", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post(env.clientInfo(0)); code != http.StatusOK {
		t.Fatalf("first register: status %d", code)
	}
	// Redelivery during the registering phase is accepted too.
	if code := post(env.clientInfo(0)); code != http.StatusOK {
		t.Fatalf("re-register while registering: status %d", code)
	}
	// User 1 completes the fleet; training starts.
	if code := post(env.clientInfo(1)); code != http.StatusOK {
		t.Fatalf("second register: status %d", code)
	}
	// Known device retrying after the flip: idempotent 200.
	if code := post(env.clientInfo(0)); code != http.StatusOK {
		t.Fatalf("re-register after training start: status %d", code)
	}
	// Out-of-fleet device after the flip: rejected.
	bad := env.clientInfo(0)
	bad.User = 7
	if code := post(bad); code != http.StatusConflict {
		t.Fatalf("stranger register after training start: status %d, want 409", code)
	}
}

// TestUploadDedupWithinRound pins upload idempotency at the HTTP level: the
// second delivery of the same (round, user) model is acknowledged without
// being counted again.
func TestUploadDedupWithinRound(t *testing.T) {
	env := newConfEnv(t, 2, 1)
	env.fraction = 1.0 // both users selected, so one upload cannot close the round
	_, ts := newTestServer(t, env, 1)

	for q := 0; q < env.users; q++ {
		body, _ := json.Marshal(env.clientInfo(q))
		resp, err := http.Post(ts.URL+"/register", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	status := func() StatusResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := status(); st.Phase != PhaseTraining {
		t.Fatalf("phase = %s after full registration, want training", st.Phase)
	}

	// The round-0 broadcast doubles as a valid upload payload.
	resp, err := http.Get(ts.URL + "/model?round=0")
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	upload := func(user int) int {
		t.Helper()
		url := fmt.Sprintf("%s/upload?user=%d&round=0", ts.URL, user)
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := upload(0); code != http.StatusNoContent {
		t.Fatalf("first upload: status %d", code)
	}
	if code := upload(0); code != http.StatusNoContent {
		t.Fatalf("duplicate upload: status %d, want 204", code)
	}
	if st := status(); st.Uploads != 1 {
		t.Fatalf("uploads after duplicate = %d, want 1", st.Uploads)
	}
	// The second user's upload completes the cohort and ends the campaign.
	if code := upload(1); code != http.StatusNoContent {
		t.Fatalf("second user upload: status %d", code)
	}
	if st := status(); st.Phase != PhaseDone {
		t.Fatalf("phase = %s after final upload, want done", st.Phase)
	}
}

// TestServerRefusesLossFeedbackPlanner: uploads carry no training loss, so
// a planner that needs it (fl.Observer) would plan on no feedback and
// diverge from the engine. The server refuses it, naming it, both when
// training starts and when a checkpoint is restored.
func TestServerRefusesLossFeedbackPlanner(t *testing.T) {
	env := newConfEnv(t, 2, 1)
	lossAware := func(devs []*device.Device) (fl.Planner, error) {
		return selection.NewHELCFLLossAware(devs, wireless.DefaultChannel(), env.modelBits,
			core.Params{Eta: 0.7, Fraction: env.fraction, StepsPerRound: 1, Clamp: true}, 0.5)
	}
	dir := t.TempDir()
	newServer := func(newPlanner func([]*device.Device) (fl.Planner, error)) (*Server, error) {
		return NewServer(ServerConfig{
			Spec: env.spec, Seed: env.seed, ExpectedUsers: env.users, Rounds: env.rounds,
			CheckpointDir: dir, Resume: true, NewPlanner: newPlanner,
		})
	}
	// registerAll returns the status and body of the registration that
	// completes the fleet.
	registerAll := func(srv *Server) (int, string) {
		t.Helper()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		var code int
		var msg []byte
		for q := 0; q < env.users; q++ {
			body, _ := json.Marshal(env.clientInfo(q))
			resp, err := http.Post(ts.URL+"/register", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			code = resp.StatusCode
		}
		return code, string(msg)
	}

	srv, err := newServer(lossAware)
	if err != nil {
		t.Fatal(err)
	}
	code, msg := registerAll(srv)
	srv.Close()
	if code != http.StatusInternalServerError || !strings.Contains(msg, `"HELCFL-lossaware"`) {
		t.Fatalf("start with a loss-feedback planner: status %d %q, want 500 naming the planner", code, msg)
	}

	// A round-0 snapshot written under flat HELCFL must not resume under it.
	srv, err = newServer(env.newPlanner)
	if err != nil {
		t.Fatal(err)
	}
	if code, msg := registerAll(srv); code != http.StatusOK {
		t.Fatalf("start with HELCFL: status %d %q", code, msg)
	}
	srv.Close()
	if _, err := newServer(lossAware); err == nil || !strings.Contains(err.Error(), `"HELCFL-lossaware"`) {
		t.Fatalf("restore with a loss-feedback planner: err %v, want one naming the planner", err)
	}
}
