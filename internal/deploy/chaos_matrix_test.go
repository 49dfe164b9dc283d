package deploy

import (
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"helcfl/internal/chaos"
	"helcfl/internal/obs"
)

func sortedInts(s []int) []int {
	out := append([]int(nil), s...)
	sort.Ints(out)
	return out
}

// The chaos matrix: each scenario injects a scripted fault pattern into the
// loopback campaign and asserts the trajectory still matches the fault-free
// reference bit-for-bit — retries, idempotent redelivery, and selection-
// order aggregation together make transport faults invisible to the math.
// Faults are scheduled on protocol coordinates (path × round × user), so
// every scenario is deterministic and race-clean.

func TestChaosMatrixFaultsDoNotChangeTrajectory(t *testing.T) {
	env := newConfEnv(t, 5, 3)

	clean := env.runDeploy(t, deployOpts{})
	for q, err := range clean.clientErrs {
		if err != nil {
			t.Fatalf("clean client %d: %v", q, err)
		}
	}
	if len(clean.summaries) != env.rounds {
		t.Fatalf("clean run closed %d rounds, want %d", len(clean.summaries), env.rounds)
	}
	ref := clean.summaries[len(clean.summaries)-1].Global

	// Target users that the deterministic Eq. (20) selection actually picks —
	// a rule aimed at an unselected user would never fire.
	sel, _ := clean.planner.rounds()
	first, second := sel[0][0], sel[0][len(sel[0])-1]

	scenarios := []struct {
		name  string
		rules []chaos.Rule
	}{
		{
			// A lost upload is retried until it lands.
			name: "upload-dropped-twice",
			rules: []chaos.Rule{
				{Path: "/upload", Round: 0, User: first, Fault: chaos.FaultDrop, Count: 2},
			},
		},
		{
			// A flapping server answers 5xx; the client backs off and retries.
			name: "model-fetch-5xx",
			rules: []chaos.Rule{
				{Path: "/model", Round: 0, User: first, Fault: chaos.Fault5xx, Count: 3},
			},
		},
		{
			// The server processes the upload but the ack is lost; the retry
			// must hit the (round, user) dedup, not double-aggregate.
			name: "upload-ack-blackholed",
			rules: []chaos.Rule{
				{Path: "/upload", Round: 0, User: second, Fault: chaos.FaultBlackholeResponse, Count: 1},
			},
		},
		{
			// The same for registration: the ack is lost, the re-register is
			// acknowledged idempotently even after training started.
			name: "register-ack-blackholed",
			rules: []chaos.Rule{
				{Path: "/register", Round: chaos.Any, User: 3, Fault: chaos.FaultBlackholeResponse, Count: 1},
			},
		},
		{
			// At-least-once delivery: every upload arrives twice.
			name: "uploads-duplicated",
			rules: []chaos.Rule{
				{Path: "/upload", Round: chaos.Any, User: chaos.Any, Fault: chaos.FaultDuplicate},
			},
		},
		{
			// Delivery reordering: the first-selected user's model fetch is
			// delayed so its upload arrives after everyone else's, inverting
			// arrival order relative to selection order. Selection-order
			// aggregation keeps the FedAvg reduction identical.
			name: "model-fetch-delayed-reorders-uploads",
			rules: []chaos.Rule{
				{Path: "/model", Round: chaos.Any, User: first, Fault: chaos.FaultLatency, Latency: 25 * time.Millisecond},
			},
		},
		{
			// Everything at once, on disjoint coordinates.
			name: "combined",
			rules: []chaos.Rule{
				{Path: "/upload", Round: 0, User: first, Fault: chaos.FaultDrop, Count: 1},
				{Path: "/model", Round: 0, User: second, Fault: chaos.Fault5xx, Count: 2},
				{Path: "/upload", Round: 1, User: chaos.Any, Fault: chaos.FaultDuplicate},
				{Path: "/model", Round: chaos.Any, User: first, Fault: chaos.FaultLatency, Latency: 10 * time.Millisecond},
			},
		},
	}

	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			script := chaos.NewScript(sc.rules...)
			dep := env.runDeploy(t, deployOpts{
				script:      script,
				maxRetries:  5,
				baseBackoff: 2 * time.Millisecond,
			})
			for q, err := range dep.clientErrs {
				if err != nil {
					t.Fatalf("client %d: %v", q, err)
				}
			}
			if len(dep.summaries) != env.rounds {
				t.Fatalf("closed %d rounds, want %d", len(dep.summaries), env.rounds)
			}
			for _, s := range dep.summaries {
				if s.Partial {
					t.Fatalf("round %d closed partially; retries should have recovered every fault", s.Round)
				}
			}
			if !bitsEqual(dep.summaries[len(dep.summaries)-1].Global, ref) {
				t.Fatal("chaos trajectory diverges from the fault-free reference")
			}
			if inj := script.Injected(); len(inj) == 0 {
				t.Fatal("scenario injected no faults — rules never matched")
			}
		})
	}
}

// TestChaosRetriesExhaustedKillsClient pins the other side of the retry
// contract: a fault pattern deeper than the retry budget surfaces as a typed
// ErrUnavailable instead of hanging or succeeding silently.
func TestChaosRetriesExhaustedKillsClient(t *testing.T) {
	env := newConfEnv(t, 5, 2)
	script := chaos.NewScript(
		chaos.Rule{Path: "/poll", Round: chaos.Any, User: 2, Fault: chaos.FaultDrop},
	)
	dep := env.runDeploy(t, deployOpts{
		script:        script,
		maxRetries:    2,
		baseBackoff:   time.Millisecond,
		roundDeadline: 50 * time.Millisecond, // survive rounds that selected user 2
		quorum:        0.5,
	})
	if err := dep.clientErrs[2]; !errors.Is(err, ErrUnavailable) {
		t.Fatalf("client 2 error = %v, want ErrUnavailable", err)
	}
	for _, q := range []int{0, 1, 3, 4} {
		if err := dep.clientErrs[q]; err != nil {
			t.Fatalf("client %d: %v", q, err)
		}
	}
	if len(dep.summaries) != env.rounds {
		t.Fatalf("closed %d rounds, want %d", len(dep.summaries), env.rounds)
	}
}

// dropoutRecorder captures server-side dropout events (called under the
// server lock; guarded anyway for the post-run read).
type dropoutRecorder struct {
	mu     sync.Mutex
	events []obs.DropoutEvent
}

func (r *dropoutRecorder) OnEvent(e obs.Event) {
	if ev, ok := e.(obs.DropoutEvent); ok {
		r.mu.Lock()
		r.events = append(r.events, ev)
		r.mu.Unlock()
	}
}

func (r *dropoutRecorder) all() []obs.DropoutEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]obs.DropoutEvent(nil), r.events...)
}

// TestChaosStragglerDeadlinePartialAggregation is the quorum scenario: one
// device's uploads are permanently lost, so every round closes via the
// straggler deadline with a partial aggregation over the surviving quorum,
// and the missing user is reported as a dropout each round. The outcome is
// deterministic — the survivors' contribution set never depends on timing
// because the lost user can never land.
func TestChaosStragglerDeadlinePartialAggregation(t *testing.T) {
	run := func() ([]RoundSummary, []obs.DropoutEvent, []error, []float64) {
		env := newConfEnv(t, 3, 2)
		env.fraction = 1.0 // select everyone: the cohort is {0,1,2} every round
		rec := &dropoutRecorder{}
		script := chaos.NewScript(
			chaos.Rule{Path: "/upload", Round: chaos.Any, User: 2, Fault: chaos.FaultDrop},
		)
		dep := env.runDeploy(t, deployOpts{
			script:        script,
			maxRetries:    1,
			baseBackoff:   time.Millisecond,
			roundDeadline: 60 * time.Millisecond,
			quorum:        0.5, // ceil(0.5×3) = 2 survivors required
			sink:          rec,
		})
		return dep.summaries, rec.all(), dep.clientErrs, dep.summaries[len(dep.summaries)-1].Global
	}

	summaries, drops, errs, finalA := run()

	if len(summaries) != 2 {
		t.Fatalf("closed %d rounds, want 2", len(summaries))
	}
	for _, s := range summaries {
		if !s.Partial {
			t.Fatalf("round %d did not close partially: %+v", s.Round, s)
		}
		// Uploaded/Missing follow selection order, so compare as sorted sets.
		if !intsEqual(sortedInts(s.Uploaded), []int{0, 1}) || !intsEqual(sortedInts(s.Missing), []int{2}) {
			t.Fatalf("round %d cohort split = uploaded %v missing %v, want {0 1}/{2}",
				s.Round, s.Uploaded, s.Missing)
		}
	}
	if len(drops) != 2 {
		t.Fatalf("dropout events = %d, want 2 (one per round)", len(drops))
	}
	for i, ev := range drops {
		if ev.User != 2 || ev.Round != i {
			t.Fatalf("dropout %d = %+v, want user 2 round %d", i, ev, i)
		}
	}
	// The starved client dies with the typed transport error; the quorum
	// finishes the campaign cleanly.
	if !errors.Is(errs[2], ErrUnavailable) {
		t.Fatalf("client 2 error = %v, want ErrUnavailable", errs[2])
	}
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("surviving clients errored: %v / %v", errs[0], errs[1])
	}

	// Deterministic: an identical rerun lands on the identical partial
	// trajectory, bit for bit.
	_, _, _, finalB := run()
	if !bitsEqual(finalA, finalB) {
		t.Fatal("partial-aggregation trajectory differs between identical runs")
	}
}
