package obs

// The FL engine (internal/fl) fires these structured events from its hot
// paths when a Config.Sink is set. Field units follow the paper: seconds
// for delays (Eqs. 4, 7, 10), joules for energies (Eqs. 5, 8, 11), hertz
// for DVFS frequencies (constraint 15).

// RunStartEvent opens one training run (Algorithm 1 initialization done).
type RunStartEvent struct {
	// Scheme is the planner name.
	Scheme string
	// Users is the fleet size Q; MaxRounds the iteration budget J.
	Users, MaxRounds int
	// ModelBits is C_model, the per-upload payload.
	ModelBits float64
}

// RoundStartEvent opens training round Round (0-based).
type RoundStartEvent struct {
	Round int
}

// SelectionEvent reports the FLCC's Algorithm 2 decision for one round.
type SelectionEvent struct {
	Round int
	// Selected lists participating user indices (post battery filtering).
	Selected []int
	// Freqs aligns with Selected: the Algorithm 3 operating frequencies.
	Freqs []float64
	// Utilities aligns with Selected: each user's Eq. (20) utility at pick
	// time. Nil when the planner does not expose decision detail.
	Utilities []float64
	// Appearances aligns with Selected: the α_q decay counters after this
	// selection. Nil when the planner does not expose decision detail.
	Appearances []int
}

// LocalUpdateEvent is one user's local-update span (Eqs. 4–5).
type LocalUpdateEvent struct {
	Round, User int
	// FreqHz is the operating frequency; SimSec is T_q^cal at that
	// frequency; EnergyJ is E_q^cal.
	FreqHz, SimSec, EnergyJ float64
	// WallSec is the measured wall-clock time of the actual gradient
	// computation on this host.
	WallSec float64
	// Loss is the user's final local training loss.
	Loss float64
}

// UploadEvent is one user's TDMA upload span (Eqs. 6–8).
type UploadEvent struct {
	Round, User int
	// SimSec is T_q^com; EnergyJ is E_q^com.
	SimSec, EnergyJ float64
	// StartSec and EndSec bound the transmission within the round timeline;
	// WaitSec is the stop-and-wait queueing before it.
	StartSec, EndSec, WaitSec float64
}

// DropoutEvent reports a selected user whose upload was lost (straggler or
// radio fault injection; Section I motivation).
type DropoutEvent struct {
	Round, User int
}

// BatteryEvent reports a device whose cumulative energy spend crossed its
// battery capacity this round — it shuts down and leaves the fleet.
type BatteryEvent struct {
	Round, User int
	// SpentJ is the device's lifetime energy spend at shutdown.
	SpentJ float64
}

// AggregateEvent reports one FedAvg aggregation (Eq. 18). The round's
// failures and mean train loss are on its RoundEndEvent.
type AggregateEvent struct {
	Round int
	// Uploads counts models that reached the FLCC.
	Uploads int
}

// RoundEndEvent closes a round with its full cost roll-up — the live
// counterpart of fl.RoundRecord / the JSONL trace line.
type RoundEndEvent struct {
	Round int
	// Selected lists participating user indices.
	Selected []int
	// Failed counts lost uploads; Alive counts devices with battery left.
	Failed, Alive int
	// DelaySec is the true TDMA round makespan; SlackSec the stop-and-wait
	// total; the energies split Eq. (11).
	DelaySec, EnergyJ, ComputeJ, UploadJ, SlackSec float64
	// CumTimeSec and CumEnergyJ accumulate across the run.
	CumTimeSec, CumEnergyJ float64
	TrainLoss              float64
	// Evaluated reports whether the global model was tested this round.
	Evaluated              bool
	TestLoss, TestAccuracy float64
}

// RunEndEvent closes a run with its exit condition and totals.
type RunEndEvent struct {
	Scheme string
	// Rounds is the number of executed rounds.
	Rounds int
	// TotalTimeSec and TotalEnergyJ sum the per-round costs.
	TotalTimeSec, TotalEnergyJ float64
	// FinalAccuracy and BestAccuracy summarize the test trajectory.
	FinalAccuracy, BestAccuracy float64
	// Which exit fired (at most one).
	StoppedByDeadline, HaltedByDeadFleet bool
}

// Event is one engine event. Kind names it as the flight dump writes it.
type Event interface{ Kind() string }

// Kind implements Event.
func (RunStartEvent) Kind() string { return "RunStart" }

// Kind implements Event.
func (RoundStartEvent) Kind() string { return "RoundStart" }

// Kind implements Event.
func (SelectionEvent) Kind() string { return "Selection" }

// Kind implements Event.
func (LocalUpdateEvent) Kind() string { return "LocalUpdate" }

// Kind implements Event.
func (UploadEvent) Kind() string { return "Upload" }

// Kind implements Event.
func (DropoutEvent) Kind() string { return "Dropout" }

// Kind implements Event.
func (BatteryEvent) Kind() string { return "Battery" }

// Kind implements Event.
func (AggregateEvent) Kind() string { return "Aggregate" }

// Kind implements Event.
func (RoundEndEvent) Kind() string { return "RoundEnd" }

// Kind implements Event.
func (RunEndEvent) Kind() string { return "RunEnd" }

// EventSink receives engine events, one of the *Event structs above per
// call. Implementations switch on the kinds they use and ignore the rest.
// They must be safe for use from a single engine goroutine; the engine
// never calls a sink concurrently with itself.
type EventSink interface{ OnEvent(Event) }

// MultiSink fans every event out to each sink in order.
type MultiSink []EventSink

// Multi combines sinks, dropping nils; it returns nil when none remain so
// callers keep the nil-sink fast path.
func Multi(sinks ...EventSink) EventSink {
	var kept MultiSink
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

// OnEvent implements EventSink.
func (m MultiSink) OnEvent(ev Event) {
	for _, s := range m {
		s.OnEvent(ev)
	}
}
