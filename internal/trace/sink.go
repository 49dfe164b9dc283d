package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"helcfl/internal/obs"
)

// Sink streams one JSONL Record per completed round, making the trace
// artifact a live consumer of the engine's event stream instead of a
// post-hoc dump of fl.Result: lines appear as rounds finish, so a killed
// run still leaves a valid prefix on disk.
type Sink struct {
	bw     *bufio.Writer
	enc    *json.Encoder
	scheme string
	err    error
}

// NewSink returns a streaming trace sink writing to w. Call Flush after
// the run to drain buffers and collect any deferred encode error.
func NewSink(w io.Writer) *Sink {
	bw := bufio.NewWriter(w)
	return &Sink{bw: bw, enc: json.NewEncoder(bw)}
}

// OnEvent captures the scheme name stamped on every line from RunStart
// and encodes each RoundEnd as a trace line. Encode errors are sticky and
// reported by Flush; the engine's hot path never sees them.
func (s *Sink) OnEvent(e obs.Event) {
	switch ev := e.(type) {
	case obs.RunStartEvent:
		s.scheme = ev.Scheme
	case obs.RoundEndEvent:
		if s.err != nil {
			return
		}
		rec := Record{
			Scheme:        s.scheme,
			Round:         ev.Round,
			Selected:      ev.Selected,
			DelaySec:      ev.DelaySec,
			EnergyJ:       ev.EnergyJ,
			ComputeJ:      ev.ComputeJ,
			UploadJ:       ev.UploadJ,
			SlackSec:      ev.SlackSec,
			CumTimeSec:    ev.CumTimeSec,
			CumEnergyJ:    ev.CumEnergyJ,
			TrainLoss:     ev.TrainLoss,
			Evaluated:     ev.Evaluated,
			TestLoss:      ev.TestLoss,
			TestAccuracy:  ev.TestAccuracy,
			SchemaVersion: SchemaVersion,
		}
		if err := s.enc.Encode(rec); err != nil {
			s.err = fmt.Errorf("trace: encode round %d: %w", ev.Round, err)
		}
	}
}

// Flush drains the write buffer and returns the first error encountered
// while streaming, if any.
func (s *Sink) Flush() error {
	if s.err != nil {
		return s.err
	}
	return s.bw.Flush()
}
