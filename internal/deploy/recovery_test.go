package deploy

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"helcfl/internal/nn"
)

// Crash-recovery conformance: the FLCC is killed at arbitrary points —
// round boundaries and mid-round, after some uploads of a cohort have been
// acknowledged — and restarted from its checkpoint directory. The merged
// trajectory across incarnations must be bit-identical to an uninterrupted
// campaign: same selections, same per-round global models, same final
// model. Clients survive the outage through their reconnect budget.
//
// The "kill" is faithful to a crash: the old incarnation is quiesced
// (Close — which persists nothing) and abandoned, so the on-disk state is
// exactly the last round-boundary snapshot plus the WAL records fsynced
// before the crash.

// proxyStatus captures the response code passing through the proxy.
type proxyStatus struct {
	http.ResponseWriter
	code int
}

func (w *proxyStatus) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// flipProxy routes to the current server incarnation, answers 503 while
// "down" (crashed, restart pending), and evaluates a kill trigger after
// every completed request.
//
// Uploads pass through one at a time (uploadMu), which makes the kill
// decision atomic with admission: the down check, the forward, the count
// and the trigger of one upload all happen before the next upload's down
// check, so nothing is acknowledged after the kill point. Without it an
// upload already past the down check when the trigger fired could complete
// the cohort, the round would close, the snapshot would reset the WAL, and
// a "mid-round" restart would find nothing to replay.
type flipProxy struct {
	uploadMu   sync.Mutex // serializes /upload end to end; taken before mu
	mu         sync.Mutex
	cur        *Server
	down       bool
	uploads    int         // cumulative accepted uploads across incarnations
	trigger    func() bool // non-nil: evaluated post-request; true = crash now
	restartReq chan struct{}
}

func (p *flipProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/upload" {
		p.uploadMu.Lock()
		defer p.uploadMu.Unlock()
	}
	p.mu.Lock()
	srv, down := p.cur, p.down
	p.mu.Unlock()
	if down || srv == nil {
		http.Error(w, "FLCC down", http.StatusServiceUnavailable)
		return
	}
	sw := &proxyStatus{ResponseWriter: w, code: http.StatusOK}
	srv.ServeHTTP(sw, r)
	p.mu.Lock()
	if r.URL.Path == "/upload" && sw.code == http.StatusNoContent {
		p.uploads++
	}
	fire := p.trigger != nil && !p.down && p.trigger()
	if fire {
		p.down = true
	}
	p.mu.Unlock()
	if fire {
		p.restartReq <- struct{}{}
	}
}

func (p *flipProxy) swap(srv *Server) {
	p.mu.Lock()
	p.cur = srv
	p.down = false
	p.mu.Unlock()
}

// recoveryRig drives one checkpointed campaign with crash/restart faults.
type recoveryRig struct {
	t     *testing.T
	env   *confEnv
	dir   string
	proxy *flipProxy

	// graceful makes the restart controller take a CheckpointNow snapshot
	// before quiescing the dying incarnation — the SIGTERM handoff sequence.
	graceful bool
	// outage stretches the down window before the restart, long enough that
	// clients exhaust per-request retries and must re-register.
	outage time.Duration
	// clientRetries is each request's retry budget (default 2).
	clientRetries int

	// reconnections totals the fleet's outage recoveries after run().
	reconnections int

	mu       sync.Mutex
	closures map[int][]RoundSummary // round → every closure observed (all incarnations)
	rounds   int                    // distinct rounds closed
	servers  []*Server
}

func newRecoveryRig(t *testing.T, env *confEnv) *recoveryRig {
	return &recoveryRig{
		t:             t,
		env:           env,
		dir:           t.TempDir(),
		proxy:         &flipProxy{restartReq: make(chan struct{}, 4)},
		clientRetries: 2,
		closures:      map[int][]RoundSummary{},
	}
}

// spawn builds a checkpointed server incarnation (Resume is safe on the
// first one: an empty directory starts fresh).
func (r *recoveryRig) spawn() (*Server, error) {
	srv, err := NewServer(ServerConfig{
		Spec:          r.env.spec,
		Seed:          r.env.seed,
		ExpectedUsers: r.env.users,
		Rounds:        r.env.rounds,
		CheckpointDir: r.dir,
		Resume:        true,
		NewPlanner:    r.env.newPlanner,
		RoundHook:     r.record,
	})
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.servers = append(r.servers, srv)
	r.mu.Unlock()
	return srv, nil
}

func (r *recoveryRig) record(s RoundSummary) {
	r.mu.Lock()
	if len(r.closures[s.Round]) == 0 {
		r.rounds++
	}
	r.closures[s.Round] = append(r.closures[s.Round], s)
	r.mu.Unlock()
}

func (r *recoveryRig) roundsClosed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rounds
}

func (r *recoveryRig) lastServer() *Server {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.servers[len(r.servers)-1]
}

// run executes the campaign: first incarnation, restart controller, client
// fleet with a reconnect budget. Returns the per-client errors.
func (r *recoveryRig) run() []error {
	t := r.t
	first, err := r.spawn()
	if err != nil {
		t.Fatal(err)
	}
	r.proxy.swap(first)
	ts := httptest.NewServer(r.proxy)
	t.Cleanup(ts.Close)

	// Restart controller: on each crash signal, quiesce the dead incarnation
	// (persists nothing — the disk state is the crash image) and bring up a
	// resumed one.
	ctrlErr := make(chan error, 1)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-r.proxy.restartReq:
				if r.outage > 0 {
					time.Sleep(r.outage)
				}
				old := r.lastServer()
				if r.graceful {
					if err := old.CheckpointNow(); err != nil {
						ctrlErr <- fmt.Errorf("graceful checkpoint: %w", err)
						return
					}
				}
				old.Close()
				next, err := r.spawn()
				if err != nil {
					ctrlErr <- fmt.Errorf("restart from checkpoint: %w", err)
					return
				}
				r.proxy.swap(next)
			}
		}
	}()

	errs := make([]error, r.env.users)
	clients := make([]*Client, r.env.users)
	var wg sync.WaitGroup
	for q := 0; q < r.env.users; q++ {
		c, err := NewClient(ClientConfig{
			BaseURL:      ts.URL,
			Info:         r.env.clientInfo(q),
			Data:         r.env.userData[q],
			Spec:         r.env.spec,
			LR:           r.env.lr,
			LocalSteps:   1,
			PollInterval: time.Millisecond,
			MaxRetries:   r.clientRetries,
			BaseBackoff:  time.Millisecond,
			Reconnects:   16,
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[q] = c
		wg.Add(1)
		go func(q int, c *Client) {
			defer wg.Done()
			errs[q] = c.Run()
		}(q, c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case err := <-ctrlErr:
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		t.Fatal("recovery campaign did not finish in 60s")
	}
	select {
	case err := <-ctrlErr:
		t.Fatal(err)
	default:
	}
	t.Cleanup(r.lastServer().Close)
	for _, c := range clients {
		r.reconnections += c.Reconnections
	}
	t.Logf("incarnations=%d reconnections=%d", len(r.servers), r.reconnections)
	return errs
}

// verify asserts the merged trajectory is bit-identical to the clean
// reference summaries and that every re-closed round (a crash between an
// aggregation and its snapshot replays deterministically) reproduced the
// identical aggregate.
func (r *recoveryRig) verify(ref []RoundSummary) {
	t := r.t
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rounds != r.env.rounds {
		t.Fatalf("closed %d distinct rounds, want %d", r.rounds, r.env.rounds)
	}
	for j := 0; j < r.env.rounds; j++ {
		got := r.closures[j]
		if len(got) == 0 {
			t.Fatalf("round %d never closed", j)
		}
		for _, s := range got[1:] {
			if !bitsEqual(s.Global, got[0].Global) || !intsEqual(s.Selected, got[0].Selected) {
				t.Fatalf("round %d re-closed with a different aggregate", j)
			}
		}
		want := ref[j]
		if want.Round != j {
			t.Fatalf("reference summaries out of order at %d", j)
		}
		if !intsEqual(got[0].Selected, want.Selected) {
			t.Fatalf("round %d selections diverge: got %v want %v", j, got[0].Selected, want.Selected)
		}
		if !bitsEqual(got[0].Global, want.Global) {
			t.Fatalf("round %d global model diverges from uninterrupted run", j)
		}
	}
}

// cleanReference runs the same campaign uninterrupted (no checkpointing)
// and returns its per-round summaries.
func cleanReference(t *testing.T, env *confEnv) []RoundSummary {
	t.Helper()
	ref := env.runDeploy(t, deployOpts{maxRetries: 2, baseBackoff: time.Millisecond})
	for q, err := range ref.clientErrs {
		if err != nil {
			t.Fatalf("reference client %d: %v", q, err)
		}
	}
	if len(ref.summaries) != env.rounds {
		t.Fatalf("reference closed %d rounds, want %d", len(ref.summaries), env.rounds)
	}
	return ref.summaries
}

// TestRecoveryKillAtRoundBoundary crashes the FLCC right after round 1
// closes (the next round is planned and snapshotted, no uploads accepted
// yet) and requires the resumed campaign to be indistinguishable.
func TestRecoveryKillAtRoundBoundary(t *testing.T) {
	env := newConfEnv(t, 5, 4)
	ref := cleanReference(t, env)

	rig := newRecoveryRig(t, env)
	fired := false
	rig.proxy.trigger = func() bool {
		if !fired && rig.roundsClosed() >= 2 {
			fired = true
			return true
		}
		return false
	}
	for q, err := range rig.run() {
		if err != nil {
			t.Fatalf("client %d: %v", q, err)
		}
	}
	rig.verify(ref)
	last := rig.lastServer()
	if got := last.mRestores.Value(); got < 1 {
		t.Fatalf("restored incarnation reports %v restores", got)
	}
	if !bitsEqual(last.Global().GetFlatParams(), ref[len(ref)-1].Global) {
		t.Fatal("final global model diverges from uninterrupted run")
	}
}

// TestRecoveryKillMidRound crashes after the first upload of round 1 has
// been acknowledged: the restarted server must replay that upload from the
// WAL (not lose it, not aggregate it twice when the client retries) and
// still land on the uninterrupted trajectory.
func TestRecoveryKillMidRound(t *testing.T) {
	env := newConfEnv(t, 5, 4)
	ref := cleanReference(t, env)
	if len(ref[1].Uploaded) < 2 {
		t.Skipf("round 1 cohort too small (%d) for a mid-round kill", len(ref[1].Uploaded))
	}
	// Crash once the first upload of round 1 lands: cumulative count =
	// |round-0 cohort| + 1.
	killAt := len(ref[0].Uploaded) + 1

	rig := newRecoveryRig(t, env)
	// Make the outage visible to the fleet: no per-request retries, and a
	// down window every client's 1ms poll is guaranteed to land in — the
	// reconnect path (ErrUnavailable → re-register → resume) must carry the
	// campaign, not the transport retries.
	rig.clientRetries = 0
	rig.outage = 30 * time.Millisecond
	fired := false
	rig.proxy.trigger = func() bool {
		if !fired && rig.proxy.uploads >= killAt { // trigger runs under proxy.mu
			fired = true
			return true
		}
		return false
	}
	for q, err := range rig.run() {
		if err != nil {
			t.Fatalf("client %d: %v", q, err)
		}
	}
	rig.verify(ref)
	if rig.reconnections == 0 {
		t.Fatal("no client exercised the reconnect path across the outage")
	}
	last := rig.lastServer()
	if got := last.mWALReplays.Value(); got < 1 {
		t.Fatalf("mid-round restart replayed %v WAL uploads, want ≥1", got)
	}
	if !bitsEqual(last.Global().GetFlatParams(), ref[len(ref)-1].Global) {
		t.Fatal("final global model diverges from uninterrupted run")
	}
}

// TestRecoveryKillTwice layers both fault points in one campaign: a crash
// at the round-0 boundary and a second one mid-round later on.
func TestRecoveryKillTwice(t *testing.T) {
	env := newConfEnv(t, 5, 5)
	ref := cleanReference(t, env)
	if len(ref[2].Uploaded) < 2 {
		t.Skipf("round 2 cohort too small (%d) for a mid-round kill", len(ref[2].Uploaded))
	}
	midKill := len(ref[0].Uploaded) + len(ref[1].Uploaded) + 1

	rig := newRecoveryRig(t, env)
	kills := 0
	rig.proxy.trigger = func() bool {
		switch kills {
		case 0:
			if rig.roundsClosed() >= 1 {
				kills++
				return true
			}
		case 1:
			if rig.proxy.uploads >= midKill {
				kills++
				return true
			}
		}
		return false
	}
	for q, err := range rig.run() {
		if err != nil {
			t.Fatalf("client %d: %v", q, err)
		}
	}
	rig.verify(ref)
	if len(rig.servers) != 3 {
		t.Fatalf("campaign ran %d incarnations, want 3", len(rig.servers))
	}
	if !bitsEqual(rig.lastServer().Global().GetFlatParams(), ref[len(ref)-1].Global) {
		t.Fatal("final global model diverges from uninterrupted run")
	}
}

// TestRecoveryGracefulHandoff exercises the shutdown path cmd/helcfl-node
// uses on SIGTERM: CheckpointNow mid-round (the forced snapshot coexists
// with the round's WAL records), Close, restart, resume.
func TestRecoveryGracefulHandoff(t *testing.T) {
	env := newConfEnv(t, 5, 3)
	ref := cleanReference(t, env)

	rig := newRecoveryRig(t, env)
	rig.graceful = true
	fired := false
	rig.proxy.trigger = func() bool {
		if !fired && rig.proxy.uploads >= 1 {
			fired = true
			return true
		}
		return false
	}
	for q, err := range rig.run() {
		if err != nil {
			t.Fatalf("client %d: %v", q, err)
		}
	}
	rig.verify(ref)
	// A snapshot of the finished campaign must also succeed (exit path).
	if err := rig.lastServer().CheckpointNow(); err != nil {
		t.Fatalf("CheckpointNow after done: %v", err)
	}
	if !bitsEqual(rig.lastServer().Global().GetFlatParams(), ref[len(ref)-1].Global) {
		t.Fatal("final global model diverges from uninterrupted run")
	}
}

// TestUploadValidation drives the server's payload screening by hand:
// malformed framing is a 400, a wrong parameter count or non-finite
// parameters are 422s, all are counted as rejections but not as dropouts,
// and a subsequent valid upload from the same user is still accepted.
func TestUploadValidation(t *testing.T) {
	env := newConfEnv(t, 3, 1)
	dropouts := &dropoutRecorder{}
	srv, err := NewServer(ServerConfig{
		Spec:          env.spec,
		Seed:          env.seed,
		ExpectedUsers: env.users,
		Rounds:        env.rounds,
		NewPlanner:    env.newPlanner,
		Sink:          dropouts,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	for q := 0; q < env.users; q++ {
		body, _ := json.Marshal(env.clientInfo(q))
		resp, err := http.Post(ts.URL+"/register", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %d: status %d", q, resp.StatusCode)
		}
	}

	// Find a selected user.
	user := -1
	for q := 0; q < env.users && user < 0; q++ {
		resp, err := http.Get(fmt.Sprintf("%s/poll?user=%d", ts.URL, q))
		if err != nil {
			t.Fatal(err)
		}
		var poll PollResponse
		if err := json.NewDecoder(resp.Body).Decode(&poll); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if poll.Selected {
			user = q
		}
	}
	if user < 0 {
		t.Fatal("no user selected in round 0")
	}

	upload := func(payload []byte) int {
		t.Helper()
		resp, err := http.Post(fmt.Sprintf("%s/upload?user=%d&round=0", ts.URL, user),
			"application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	valid := nn.ParamBytes(srv.Global())

	if code := upload([]byte("definitely not a model")); code != http.StatusBadRequest {
		t.Fatalf("garbage payload: status %d, want 400", code)
	}
	// Structurally valid frame declaring one extra parameter.
	n := binary.LittleEndian.Uint32(valid[4:8])
	wrongCount := make([]byte, len(valid)+4)
	copy(wrongCount, valid)
	binary.LittleEndian.PutUint32(wrongCount[4:8], n+1)
	if code := upload(wrongCount); code != http.StatusUnprocessableEntity {
		t.Fatalf("shape mismatch: status %d, want 422", code)
	}
	// One parameter flipped to NaN.
	poisoned := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(poisoned[8:12], math.Float32bits(float32(math.NaN())))
	if code := upload(poisoned); code != http.StatusUnprocessableEntity {
		t.Fatalf("NaN payload: status %d, want 422", code)
	}
	infected := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(infected[8:12], math.Float32bits(float32(math.Inf(1))))
	if code := upload(infected); code != http.StatusUnprocessableEntity {
		t.Fatalf("Inf payload: status %d, want 422", code)
	}
	if got := srv.mRejected.Value(); got != 4 {
		t.Fatalf("rejected-uploads counter %v, want 4", got)
	}
	// The user is not locked out: a clean retry is accepted.
	if code := upload(valid); code != http.StatusNoContent {
		t.Fatalf("valid upload after rejections: status %d, want 204", code)
	}
	if got := srv.mUploads.Value(); got != 1 {
		t.Fatalf("accepted-uploads counter %v, want 1", got)
	}
	// A rejected upload that is retried is no dropout; only a round close
	// reports the users still missing.
	if got := dropouts.all(); len(got) != 0 {
		t.Fatalf("rejections emitted dropout events %v", got)
	}
}
