package trace

import (
	"bytes"
	"testing"

	"helcfl/internal/obs"
)

func TestSinkStreamsRoundsAsRecords(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	s.OnEvent(obs.RunStartEvent{Scheme: "HELCFL", Users: 10, MaxRounds: 2})
	s.OnEvent(obs.RoundEndEvent{
		Round: 0, Selected: []int{1, 3}, DelaySec: 2.5, EnergyJ: 10,
		ComputeJ: 8, UploadJ: 2, SlackSec: 0.5, CumTimeSec: 2.5,
		CumEnergyJ: 10, TrainLoss: 1.2, Evaluated: true, TestLoss: 1.1,
		TestAccuracy: 0.4,
	})
	s.OnEvent(obs.RoundEndEvent{
		Round: 1, Selected: []int{0}, DelaySec: 3, EnergyJ: 12,
		ComputeJ: 9, UploadJ: 3, SlackSec: 0.2, CumTimeSec: 5.5,
		CumEnergyJ: 22, TrainLoss: 0.9,
	})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.Scheme != "HELCFL" || r.DelaySec != 2.5 || !r.Evaluated || r.TestAccuracy != 0.4 {
		t.Fatalf("record = %+v", r)
	}
	if r.SchemaVersion != SchemaVersion {
		t.Fatalf("version = %d", r.SchemaVersion)
	}
	if recs[1].Round != 1 || recs[1].Evaluated {
		t.Fatalf("record = %+v", recs[1])
	}
}

// TestSinkMatchesPostHocWrite pins the streaming path to the batch path:
// both must produce byte-identical artifacts for the same run.
func TestSinkMatchesPostHocWrite(t *testing.T) {
	engineRecs := sampleRecords()
	var batch bytes.Buffer
	if err := Write(&batch, "HELCFL", engineRecs); err != nil {
		t.Fatal(err)
	}

	var stream bytes.Buffer
	s := NewSink(&stream)
	s.OnEvent(obs.RunStartEvent{Scheme: "HELCFL"})
	for _, r := range engineRecs {
		s.OnEvent(obs.RoundEndEvent{
			Round: r.Round, Selected: r.Selected, DelaySec: r.Delay,
			EnergyJ: r.Energy, ComputeJ: r.ComputeEnergy, UploadJ: r.UploadEnergy,
			SlackSec: r.Slack, CumTimeSec: r.CumTime, CumEnergyJ: r.CumEnergy,
			TrainLoss: r.TrainLoss, Evaluated: r.Evaluated, TestLoss: r.TestLoss,
			TestAccuracy: r.TestAccuracy,
		})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batch.Bytes(), stream.Bytes()) {
		t.Fatalf("streaming and batch artifacts diverge:\nbatch:  %s\nstream: %s", batch.Bytes(), stream.Bytes())
	}
}
