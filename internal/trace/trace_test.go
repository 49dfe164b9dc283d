package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"helcfl/internal/fl"
)

func sampleRecords() []fl.RoundRecord {
	return []fl.RoundRecord{
		{
			Round: 0, Selected: []int{1, 3}, Delay: 2.5, Energy: 10,
			ComputeEnergy: 8, UploadEnergy: 2, Slack: 0.5,
			CumTime: 2.5, CumEnergy: 10, TrainLoss: 1.2,
			Evaluated: true, TestLoss: 1.1, TestAccuracy: 0.4,
		},
		{
			Round: 1, Selected: []int{0, 2}, Delay: 3.0, Energy: 12,
			ComputeEnergy: 9, UploadEnergy: 3, Slack: 0.2,
			CumTime: 5.5, CumEnergy: 22, TrainLoss: 0.9,
		},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, "HELCFL", sampleRecords()); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.Scheme != "HELCFL" || r.Round != 0 || r.DelaySec != 2.5 || !r.Evaluated || r.TestAccuracy != 0.4 {
		t.Fatalf("record = %+v", r)
	}
	if len(r.Selected) != 2 || r.Selected[1] != 3 {
		t.Fatalf("selected = %v", r.Selected)
	}
	if r.SchemaVersion != SchemaVersion {
		t.Fatalf("version = %d", r.SchemaVersion)
	}
}

func TestWriteProducesOneLinePerRound(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, "x", sampleRecords()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "{") || !strings.HasSuffix(l, "}") {
			t.Fatalf("not a JSON line: %s", l)
		}
	}
}

func TestReadSkipsBlankLinesAndRejectsGarbage(t *testing.T) {
	recs, err := Read(strings.NewReader("\n{\"scheme\":\"a\",\"round\":0,\"delay_sec\":1,\"energy_j\":1,\"v\":1}\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage must error")
	}
}

func TestReadRejectsFutureSchema(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"scheme":"a","round":0,"v":99}` + "\n")); err == nil {
		t.Fatal("future schema must be rejected")
	}
}

func TestValidate(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, "HELCFL", sampleRecords()); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(recs); err != nil {
		t.Fatal(err)
	}
	// Out-of-order rounds.
	bad := []Record{recs[1], recs[0]}
	bad[0].Scheme, bad[1].Scheme = "x", "x"
	if err := Validate(bad); err == nil {
		t.Fatal("out-of-order rounds must fail")
	}
	// Non-positive delay.
	bad2 := []Record{recs[0]}
	bad2[0].DelaySec = 0
	if err := Validate(bad2); err == nil {
		t.Fatal("zero delay must fail")
	}
	// Decreasing cumulative energy.
	bad3 := []Record{recs[0], recs[1]}
	bad3[1].CumEnergyJ = 1
	if err := Validate(bad3); err == nil {
		t.Fatal("decreasing cumulative energy must fail")
	}
}

func TestValidateRejectsNonFiniteAndNegativeSlack(t *testing.T) {
	base := func() Record {
		return Record{
			Scheme: "a", Round: 0, DelaySec: 1, EnergyJ: 2, ComputeJ: 1.5,
			UploadJ: 0.5, SlackSec: 0.1, CumTimeSec: 1, CumEnergyJ: 2,
			TrainLoss: 0.7, SchemaVersion: SchemaVersion,
		}
	}
	if err := Validate([]Record{base()}); err != nil {
		t.Fatalf("baseline record invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Record)
	}{
		{"NaN delay", func(r *Record) { r.DelaySec = math.NaN() }},
		{"Inf energy", func(r *Record) { r.EnergyJ = math.Inf(1) }},
		{"NaN train loss", func(r *Record) { r.TrainLoss = math.NaN() }},
		{"-Inf cum time", func(r *Record) { r.CumTimeSec = math.Inf(-1) }},
		{"NaN test accuracy", func(r *Record) { r.TestAccuracy = math.NaN() }},
		{"negative slack", func(r *Record) { r.SlackSec = -0.01 }},
	}
	for _, tc := range cases {
		r := base()
		tc.mutate(&r)
		if err := Validate([]Record{r}); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, r)
		}
	}
}

func TestValidateResetsCumulativeAtSchemeBoundary(t *testing.T) {
	// Two schemes written back-to-back into one artifact: the second starts
	// its own round numbering and cumulative totals from scratch, which must
	// not trip the monotonicity checks.
	var buf bytes.Buffer
	if err := Write(&buf, "HELCFL", sampleRecords()); err != nil {
		t.Fatal(err)
	}
	if err := Write(&buf, "ClassicFL", sampleRecords()); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("records = %d", len(recs))
	}
	// Cumulative time drops from 5.5 (HELCFL round 1) to 2.5 (ClassicFL
	// round 0) across the boundary; round numbering restarts at 0.
	if err := Validate(recs); err != nil {
		t.Fatalf("scheme boundary tripped validation: %v", err)
	}
	// The same drop WITHIN one scheme must still fail.
	same := make([]Record, len(recs))
	copy(same, recs)
	for i := range same {
		same[i].Scheme = "one"
		same[i].Round = i // keep rounds ordered so only cum fields trip
	}
	if err := Validate(same); err == nil {
		t.Fatal("cumulative drop within one scheme must fail")
	}
}

func TestRoundTripFromEngine(t *testing.T) {
	// End-to-end: write a real engine run's records and validate the trace.
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := Write(&buf, "ClassicFL", recs); err != nil {
		t.Fatal(err)
	}
	parsed, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(parsed); err != nil {
		t.Fatal(err)
	}
	if parsed[1].CumEnergyJ != 22 {
		t.Fatalf("cumulative energy = %g", parsed[1].CumEnergyJ)
	}
}

// FromRoundRecord converts an engine record: the post-hoc oracle the
// streaming Sink is pinned to.
func FromRoundRecord(scheme string, r fl.RoundRecord) Record {
	return Record{
		Scheme:        scheme,
		Round:         r.Round,
		Selected:      r.Selected,
		DelaySec:      r.Delay,
		EnergyJ:       r.Energy,
		ComputeJ:      r.ComputeEnergy,
		UploadJ:       r.UploadEnergy,
		SlackSec:      r.Slack,
		CumTimeSec:    r.CumTime,
		CumEnergyJ:    r.CumEnergy,
		TrainLoss:     r.TrainLoss,
		Evaluated:     r.Evaluated,
		TestLoss:      r.TestLoss,
		TestAccuracy:  r.TestAccuracy,
		SchemaVersion: SchemaVersion,
	}
}

// Write emits one JSONL line per record.
func Write(w io.Writer, scheme string, recs []fl.RoundRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range recs {
		if err := enc.Encode(FromRoundRecord(scheme, r)); err != nil {
			return fmt.Errorf("trace: encode round %d: %w", r.Round, err)
		}
	}
	return bw.Flush()
}
