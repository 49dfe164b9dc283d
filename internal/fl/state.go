package fl

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// EngineState is a complete snapshot of an Engine taken at a round
// boundary: everything Algorithm 1 accumulates across rounds — global model
// parameters (full float64 precision, so the resumed FedAvg trajectory is
// bit-identical), the RNG stream position, battery ledgers, and the
// completed-round records. Together with the planner's
// exported state (PlannerState) it is sufficient to reconstruct an engine
// whose remaining rounds are indistinguishable from never having stopped.
type EngineState struct {
	// Round is the next round the engine would execute.
	Round int
	// RNGUsed counts post-initialization Float64 draws (dropout sampling);
	// restore replays the seeded stream to this position.
	RNGUsed uint64
	// GlobalParams is the flat global parameter vector, exact.
	GlobalParams []float64
	// CumTime and CumEnergy accumulate the executed rounds' costs.
	CumTime, CumEnergy float64
	// SpentJ is the per-device lifetime energy ledger (battery faults).
	SpentJ []float64
	// Records are the completed rounds.
	Records []RoundRecord
	// Result roll-up captured so far.
	BestAccuracy, FinalAccuracy float64
	StoppedByDeadline           bool
	HaltedByDeadFleet           bool
	// Stopped mirrors the engine's exit latch.
	Stopped bool
	// PlannerState is the planner's exported cross-round state (nil when the
	// planner is stateless or does not implement StatefulPlanner).
	PlannerState []byte
}

// Snapshot captures the engine's campaign state between rounds. When the
// configured planner implements StatefulPlanner its state is embedded, so
// a restore reproduces the exact selection sequence; planners that keep
// hidden state without implementing StatefulPlanner cannot be resumed
// deterministically (the HELCFL and FedCS planners both can).
func (e *Engine) Snapshot() (*EngineState, error) {
	sp := e.cfg.Trace.Start(e.runSp.Ref(), "fl.snapshot")
	defer sp.End()
	st := &EngineState{
		Round:             e.round,
		RNGUsed:           e.rngUsed,
		GlobalParams:      e.global.GetFlatParams(),
		CumTime:           e.cumTime,
		CumEnergy:         e.cumEnergy,
		SpentJ:            append([]float64(nil), e.spentJ...),
		Records:           copyRecords(e.res.Records),
		BestAccuracy:      e.res.BestAccuracy,
		FinalAccuracy:     e.res.FinalAccuracy,
		StoppedByDeadline: e.res.StoppedByDeadline,
		HaltedByDeadFleet: e.res.HaltedByDeadFleet,
		Stopped:           e.stopped,
	}
	if sp, ok := e.cfg.Planner.(StatefulPlanner); ok {
		raw, err := sp.ExportState()
		if err != nil {
			return nil, fmt.Errorf("fl: export planner state: %w", err)
		}
		st.PlannerState = raw
	}
	return st, nil
}

// RestoreEngine rebuilds an engine from a configuration and a snapshot.
// cfg must describe the same campaign the snapshot was taken from (same
// spec, fleet, data, seed, and a freshly constructed planner of the same
// kind); the restored engine then executes the remaining rounds
// bit-identically to the engine that produced the snapshot.
func RestoreEngine(cfg Config, st *EngineState) (*Engine, error) {
	if st == nil {
		return nil, fmt.Errorf("fl: nil engine state")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e, err := newEngineState(cfg)
	if err != nil {
		return nil, err
	}
	if len(st.GlobalParams) != e.global.NumParams() {
		return nil, fmt.Errorf("fl: state has %d params, model has %d", len(st.GlobalParams), e.global.NumParams())
	}
	if len(st.SpentJ) != len(cfg.Devices) {
		return nil, fmt.Errorf("fl: state has %d battery ledgers for fleet of %d", len(st.SpentJ), len(cfg.Devices))
	}
	if st.Round < 0 || st.Round > cfg.MaxRounds {
		return nil, fmt.Errorf("fl: state round %d outside budget %d", st.Round, cfg.MaxRounds)
	}
	e.global.SetFlatParams(append([]float64(nil), st.GlobalParams...))
	// Re-position the seeded RNG stream: model initialization already
	// consumed its prefix in newEngineState; burn the recorded dropout draws.
	for i := uint64(0); i < st.RNGUsed; i++ {
		e.rng.Float64()
	}
	e.rngUsed = st.RNGUsed
	e.round = st.Round
	e.cumTime = st.CumTime
	e.cumEnergy = st.CumEnergy
	e.spentJ = append([]float64(nil), st.SpentJ...)
	e.stopped = st.Stopped
	e.res.Records = copyRecords(st.Records)
	e.res.BestAccuracy = st.BestAccuracy
	e.res.FinalAccuracy = st.FinalAccuracy
	e.res.StoppedByDeadline = st.StoppedByDeadline
	e.res.HaltedByDeadFleet = st.HaltedByDeadFleet
	if st.PlannerState != nil {
		sp, ok := cfg.Planner.(StatefulPlanner)
		if !ok {
			return nil, fmt.Errorf("fl: snapshot carries planner state but planner %q cannot import it", cfg.Planner.Name())
		}
		if err := sp.ImportState(st.PlannerState); err != nil {
			return nil, fmt.Errorf("fl: import planner state: %w", err)
		}
	}
	e.emitRunStart()
	e.startRunSpan()
	return e, nil
}

func copyRecords(recs []RoundRecord) []RoundRecord {
	out := make([]RoundRecord, len(recs))
	for i, r := range recs {
		r.Selected = append([]int(nil), r.Selected...)
		r.Freqs = append([]float64(nil), r.Freqs...)
		out[i] = r
	}
	return out
}

// Marshal encodes the state for embedding in a checkpoint file payload
// (see internal/checkpoint for the durable framing). It deliberately does
// not implement encoding.BinaryMarshaler — gob would call it back from
// inside Encode and recurse forever.
func (st *EngineState) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("fl: encode engine state: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalEngineState decodes a Marshal payload.
func UnmarshalEngineState(raw []byte) (*EngineState, error) {
	var st EngineState
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&st); err != nil {
		return nil, fmt.Errorf("fl: decode engine state: %w", err)
	}
	return &st, nil
}
