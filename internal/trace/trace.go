// Package trace serializes per-round training telemetry as JSON Lines, the
// artifact format the CLI emits for external plotting and regression
// tracking, with a reader that reconstructs round records for analysis.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Record is the JSONL schema of one training round. It flattens
// fl.RoundRecord into stable, lower-case field names.
type Record struct {
	Scheme        string  `json:"scheme"`
	Round         int     `json:"round"`
	Selected      []int   `json:"selected"`
	DelaySec      float64 `json:"delay_sec"`
	EnergyJ       float64 `json:"energy_j"`
	ComputeJ      float64 `json:"compute_j"`
	UploadJ       float64 `json:"upload_j"`
	SlackSec      float64 `json:"slack_sec"`
	CumTimeSec    float64 `json:"cum_time_sec"`
	CumEnergyJ    float64 `json:"cum_energy_j"`
	TrainLoss     float64 `json:"train_loss"`
	Evaluated     bool    `json:"evaluated"`
	TestLoss      float64 `json:"test_loss,omitempty"`
	TestAccuracy  float64 `json:"test_accuracy,omitempty"`
	SchemaVersion int     `json:"v"`
}

// SchemaVersion is bumped on breaking changes to Record.
const SchemaVersion = 1

// Read parses a JSONL stream back into records. Unknown fields are
// ignored; a version above SchemaVersion is rejected.
func Read(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if rec.SchemaVersion > SchemaVersion {
			return nil, fmt.Errorf("trace: line %d: schema v%d newer than supported v%d", line, rec.SchemaVersion, SchemaVersion)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scan: %w", err)
	}
	return out, nil
}

// Validate checks structural invariants of a trace: rounds in order,
// cumulative fields non-decreasing (resetting at scheme boundaries, since a
// multi-scheme artifact concatenates independent runs), costs positive, no
// negative slack, and every numeric field finite.
func Validate(recs []Record) error {
	prevTime, prevEnergy := 0.0, 0.0
	for i, r := range recs {
		if i > 0 && recs[i-1].Scheme == r.Scheme && r.Round <= recs[i-1].Round {
			return fmt.Errorf("trace: round %d out of order at line %d", r.Round, i+1)
		}
		for _, f := range [...]struct {
			name string
			v    float64
		}{
			{"delay_sec", r.DelaySec}, {"energy_j", r.EnergyJ},
			{"compute_j", r.ComputeJ}, {"upload_j", r.UploadJ},
			{"slack_sec", r.SlackSec}, {"cum_time_sec", r.CumTimeSec},
			{"cum_energy_j", r.CumEnergyJ}, {"train_loss", r.TrainLoss},
			{"test_loss", r.TestLoss}, {"test_accuracy", r.TestAccuracy},
		} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
				return fmt.Errorf("trace: round %d: %s is %g", r.Round, f.name, f.v)
			}
		}
		if r.DelaySec <= 0 || r.EnergyJ <= 0 {
			return fmt.Errorf("trace: round %d: non-positive costs", r.Round)
		}
		if r.SlackSec < 0 {
			return fmt.Errorf("trace: round %d: negative slack %g", r.Round, r.SlackSec)
		}
		if i > 0 && recs[i-1].Scheme == r.Scheme {
			if r.CumTimeSec < prevTime || r.CumEnergyJ < prevEnergy {
				return fmt.Errorf("trace: round %d: cumulative fields decreased", r.Round)
			}
		}
		prevTime, prevEnergy = r.CumTimeSec, r.CumEnergyJ
	}
	return nil
}
