package fl

import (
	"bytes"
	"encoding/gob"
)

// resultWire mirrors Result minus Model for gob transport. The final model
// holds interface-typed layers gob cannot traverse, and no assembler reads
// it — campaign folds consume Records and the scalar summaries only — so a
// Result that crosses a process boundary travels without it. gob keeps
// float64 payloads bit-exact, which is what lets a distributed merge stay
// byte-identical to the in-process run.
type resultWire struct {
	Scheme                      string
	Records                     []RoundRecord
	ModelBits                   float64
	FinalAccuracy, BestAccuracy float64
	TotalTime, TotalEnergy      float64
	StoppedByDeadline           bool
	HaltedByDeadFleet           bool
}

// GobEncode implements gob.GobEncoder, dropping Model (see resultWire).
func (r *Result) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(resultWire{
		Scheme:            r.Scheme,
		Records:           r.Records,
		ModelBits:         r.ModelBits,
		FinalAccuracy:     r.FinalAccuracy,
		BestAccuracy:      r.BestAccuracy,
		TotalTime:         r.TotalTime,
		TotalEnergy:       r.TotalEnergy,
		StoppedByDeadline: r.StoppedByDeadline,
		HaltedByDeadFleet: r.HaltedByDeadFleet,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder. The decoded Result has a nil Model.
func (r *Result) GobDecode(data []byte) error {
	var w resultWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	*r = Result{
		Scheme:            w.Scheme,
		Records:           w.Records,
		ModelBits:         w.ModelBits,
		FinalAccuracy:     w.FinalAccuracy,
		BestAccuracy:      w.BestAccuracy,
		TotalTime:         w.TotalTime,
		TotalEnergy:       w.TotalEnergy,
		StoppedByDeadline: w.StoppedByDeadline,
		HaltedByDeadFleet: w.HaltedByDeadFleet,
	}
	return nil
}
