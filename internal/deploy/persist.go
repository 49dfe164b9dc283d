package deploy

// Server-side durable state: a snapshot of the campaign written at every
// round boundary plus a write-ahead log of intra-round events, both under
// ServerConfig.CheckpointDir via internal/checkpoint. Together they make
// the FLCC crash-recoverable with a bit-identical trajectory:
//
//   - The snapshot is taken immediately after PlanRound (which mutates the
//     planner's α-decay state and must not be re-run), so it stores the
//     planned cohort and frequencies alongside the post-plan planner state.
//   - Every accepted upload is appended to the WAL — raw wire bytes, before
//     the 204 acknowledgement — so a restarted server replays exactly the
//     uploads it acknowledged and a client retry deduplicates instead of
//     double-aggregating (at-most-once aggregation).
//   - The WAL is reset only after a snapshot write succeeds. A crash between
//     an aggregation and its snapshot therefore restarts from the previous
//     snapshot with the previous round's complete upload set in the WAL;
//     replay re-runs the identical selection-order FedAvg and rolls forward.
import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"helcfl/internal/checkpoint"
	"helcfl/internal/device"
	"helcfl/internal/fl"
	"helcfl/internal/nn"
)

// Checkpoint artifact names inside ServerConfig.CheckpointDir.
const (
	snapshotFile = "server.ckpt"
	walFile      = "rounds.wal"
)

// serverState is the gob payload inside the snapshot file frame.
type serverState struct {
	// Phase is PhaseTraining or PhaseDone; a snapshot is never taken while
	// registration is still open.
	Phase Phase
	// Round is the currently planned (or, when done, final) round.
	Round int
	// Devices is the registered fleet's resource information, indexed by
	// user.
	Devices []device.Device
	// GlobalParams is the exact float64 global model (bitwise resume needs
	// more precision than the f32 wire format carries).
	GlobalParams []float64
	// SelOrder and Freqs are the planned cohort; stored because PlanRound
	// already ran for this round and must not run again on restore.
	SelOrder []int
	Freqs    []float64
	// PlannerState is the planner's post-PlanRound exported state (nil for
	// stateless planners).
	PlannerState []byte
	// BytesUp and BytesDown carry the transfer accounting across restarts.
	BytesUp, BytesDown int64
}

// initDurabilityLocked prepares CheckpointDir, optionally restores the
// previous incarnation's state, and opens the WAL. Called from NewServer
// before the server is shared, with no concurrent handlers.
func (s *Server) initDurabilityLocked() error {
	start := time.Now()
	if err := os.MkdirAll(s.cfg.CheckpointDir, 0o755); err != nil {
		return fmt.Errorf("deploy: create checkpoint dir: %w", err)
	}
	restored := false
	if s.cfg.Resume {
		//helcfl:allow(lockheld) runs from NewServer before the server is shared; no handler can contend for the lock during restore
		payload, err := checkpoint.ReadFile(s.snapshotPath())
		switch {
		case errors.Is(err, os.ErrNotExist):
			// Nothing to resume — first incarnation; start fresh.
		case err != nil:
			return fmt.Errorf("deploy: read checkpoint: %w", err)
		default:
			if err := s.restoreLocked(payload); err != nil {
				return err
			}
			restored = true
		}
	}
	wal, records, err := checkpoint.OpenWAL(filepath.Join(s.cfg.CheckpointDir, walFile))
	if err != nil {
		return err
	}
	s.wal = wal
	if !restored {
		// Stale records from an abandoned campaign must not leak into this
		// one.
		//helcfl:allow(lockheld) runs from NewServer before the server is shared; no handler can contend for the lock during restore
		return s.wal.Reset()
	}
	if err := s.replayLocked(records); err != nil {
		return err
	}
	s.mRestores.Inc()
	s.mRecoverySec.Set(time.Since(start).Seconds())
	s.logf("checkpoint: restored round=%d phase=%s replayed=%d in %v",
		s.round, s.phase, len(records), time.Since(start))
	return nil
}

// restoreLocked rebuilds the campaign from a snapshot payload.
func (s *Server) restoreLocked(payload []byte) error {
	var st serverState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return fmt.Errorf("deploy: decode checkpoint: %w", err)
	}
	switch {
	case st.Phase != PhaseTraining && st.Phase != PhaseDone:
		return fmt.Errorf("deploy: checkpoint in phase %q", st.Phase)
	case len(st.Devices) != s.cfg.ExpectedUsers:
		return fmt.Errorf("deploy: checkpoint fleet %d, configured %d", len(st.Devices), s.cfg.ExpectedUsers)
	case st.Round < 0 || st.Round > s.cfg.Rounds:
		return fmt.Errorf("deploy: checkpoint round %d outside budget %d", st.Round, s.cfg.Rounds)
	case len(st.SelOrder) != len(st.Freqs):
		return fmt.Errorf("deploy: checkpoint cohort %d users, %d freqs", len(st.SelOrder), len(st.Freqs))
	}
	for q := range st.Devices {
		d := st.Devices[q]
		s.devices[q] = &d
		s.registered[q] = true
	}
	planner, err := s.newPlanner()
	if err != nil {
		return fmt.Errorf("deploy: rebuild planner: %w", err)
	}
	if st.PlannerState != nil {
		sp, ok := planner.(fl.StatefulPlanner)
		if !ok {
			return fmt.Errorf("deploy: checkpoint carries planner state but planner %q cannot import it", planner.Name())
		}
		if err := sp.ImportState(st.PlannerState); err != nil {
			return fmt.Errorf("deploy: import planner state: %w", err)
		}
	}
	s.planner = planner
	s.global = s.cfg.Spec.Build(newSeededRand(s.cfg.Seed))
	if want := s.global.NumParams(); len(st.GlobalParams) != want {
		return fmt.Errorf("deploy: checkpoint has %d params, model has %d", len(st.GlobalParams), want)
	}
	s.global.SetFlatParams(append([]float64(nil), st.GlobalParams...))
	s.phase = st.Phase
	s.round = st.Round
	s.bytesUp = st.BytesUp
	s.bytesDown = st.BytesDown
	s.mRound.Set(float64(s.round))
	if s.phase != PhaseTraining {
		return nil
	}
	s.selOrder = append([]int(nil), st.SelOrder...)
	s.selected = make(map[int]float64, len(st.SelOrder))
	for i, q := range st.SelOrder {
		if q < 0 || q >= s.cfg.ExpectedUsers {
			return fmt.Errorf("deploy: checkpoint cohort user %d outside fleet", q)
		}
		s.selected[q] = st.Freqs[i]
	}
	s.uploads = map[int][]float64{}
	s.payload = nn.ParamBytes(s.global)
	return nil
}

// replayLocked re-applies the WAL onto restored state: every intact upload
// record for the current round is decoded and accepted exactly as its
// original request was, so already-acknowledged uploads are not lost and a
// client retrying one hits the idempotent-duplicate path instead of being
// aggregated twice. If replay completes the cohort — a crash landed between
// the last upload and the round's aggregation — the round closes now,
// deterministically, before any handler runs.
func (s *Server) replayLocked(records []checkpoint.Record) error {
	if s.phase != PhaseTraining {
		return nil
	}
	for _, rec := range records {
		switch rec.Type {
		case checkpoint.RecordRoundStart:
			if rec.Round != s.round {
				return fmt.Errorf("deploy: wal round %d, checkpoint round %d", rec.Round, s.round)
			}
		case checkpoint.RecordUpload:
			if rec.Round != s.round {
				// Records from the round whose snapshot failed to land; the
				// snapshot we restored precedes them. Should be impossible
				// because the WAL is only reset after a successful snapshot —
				// treat it as the corruption it is.
				return fmt.Errorf("deploy: wal upload for round %d, checkpoint round %d", rec.Round, s.round)
			}
			if _, ok := s.selected[rec.User]; !ok {
				return fmt.Errorf("deploy: wal upload from unselected user %d", rec.User)
			}
			if _, dup := s.uploads[rec.User]; dup {
				continue
			}
			scratch := s.global.Clone()
			if err := nn.LoadParamBytes(scratch, rec.Payload); err != nil {
				return fmt.Errorf("deploy: wal upload user %d: %w", rec.User, err)
			}
			s.uploads[rec.User] = scratch.GetFlatParams()
			s.bytesUp += int64(len(rec.Payload))
			s.mWALReplays.Inc()
		default:
			return fmt.Errorf("deploy: wal record type %d unknown", rec.Type)
		}
	}
	if len(s.uploads) == len(s.selected) {
		s.aggregateLocked()
		return nil
	}
	s.armDeadlineLocked()
	return nil
}

// checkpointLocked writes the snapshot; when resetWAL is set and the write
// lands, the (now redundant) WAL is cleared and re-primed with the round
// marker. A failed write is logged and counted, never fatal: the previous
// snapshot + un-reset WAL still reconstruct this exact state. Caller holds
// mu.
func (s *Server) checkpointLocked(resetWAL bool) {
	if s.cfg.CheckpointDir == "" || s.global == nil {
		return
	}
	if err := s.writeSnapshotLocked(); err != nil {
		s.mCkptErrors.Inc()
		s.logf("checkpoint: write failed (will retry next boundary): %v", err)
		return
	}
	s.mCkptWrites.Inc()
	if !resetWAL || s.wal == nil {
		return
	}
	//helcfl:allow(lockheld) the WAL truncation must be atomic with the snapshot it folded into; the state lock is that atomicity boundary
	if err := s.wal.Reset(); err != nil {
		s.logf("checkpoint: wal reset failed: %v", err)
		return
	}
	if s.phase == PhaseTraining {
		//helcfl:allow(lockheld) the round marker must land in the same lock hold as the truncation above, or a crash between them replays into the wrong round
		if err := s.wal.Append(checkpoint.Record{Type: checkpoint.RecordRoundStart, Round: s.round}); err != nil {
			s.logf("checkpoint: wal round marker failed: %v", err)
		}
	}
}

func (s *Server) writeSnapshotLocked() error {
	st := serverState{
		Phase:        s.phase,
		Round:        s.round,
		Devices:      make([]device.Device, len(s.devices)),
		GlobalParams: s.global.GetFlatParams(),
		SelOrder:     append([]int(nil), s.selOrder...),
		BytesUp:      s.bytesUp,
		BytesDown:    s.bytesDown,
	}
	for q, d := range s.devices {
		if d == nil {
			return fmt.Errorf("deploy: device %d unregistered at snapshot", q)
		}
		st.Devices[q] = *d
	}
	st.Freqs = make([]float64, len(s.selOrder))
	for i, q := range s.selOrder {
		st.Freqs[i] = s.selected[q]
	}
	if sp, ok := s.planner.(fl.StatefulPlanner); ok {
		raw, err := sp.ExportState()
		if err != nil {
			return fmt.Errorf("deploy: export planner state: %w", err)
		}
		st.PlannerState = raw
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return fmt.Errorf("deploy: encode checkpoint: %w", err)
	}
	//helcfl:allow(lockheld) the snapshot serialized under the lock must hit disk before state can advance; releasing mid-write would let the next upload mutate what the fsync claims to capture
	return checkpoint.WriteFile(s.snapshotPath(), buf.Bytes())
}

func (s *Server) snapshotPath() string {
	return filepath.Join(s.cfg.CheckpointDir, snapshotFile)
}

// CheckpointNow forces a snapshot of the current state without touching the
// WAL — the graceful-shutdown path (the WAL still holds this round's
// uploads, so the pair stays consistent). No-op without a CheckpointDir.
func (s *Server) CheckpointNow() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.CheckpointDir == "" || s.global == nil {
		return nil
	}
	if err := s.writeSnapshotLocked(); err != nil {
		s.mCkptErrors.Inc()
		return err
	}
	s.mCkptWrites.Inc()
	return nil
}

// logf forwards to the configured logger when present.
func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Log != nil {
		s.cfg.Log(format, args...)
	}
}
