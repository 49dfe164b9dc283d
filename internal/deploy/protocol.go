// Package deploy is a runnable networked prototype of the HELCFL system:
// an FLCC HTTP server (base station + edge server) and polling device
// clients speaking a small JSON + binary protocol. The simulation packages
// model costs; this package demonstrates the same Algorithm 1 control flow
// over a real transport — registration (resource information), per-round
// selection + frequency assignment, model broadcast, local GD, upload, and
// FedAvg — with genuine concurrency and real payload bytes.
//
// The transport is fault-tolerant and conformant with the in-process engine:
// clients retry transient failures with jittered exponential backoff
// (ClientConfig), the server deduplicates redelivered registrations and
// uploads by (round, user), aggregation walks the planner's selection order
// so the FedAvg reduction is bit-for-bit reproducible, and an optional
// straggler deadline (ServerConfig.RoundDeadline/Quorum) closes rounds with
// partial aggregations when devices go missing. See docs/ROBUSTNESS.md.
package deploy

import "helcfl/internal/obs/span"

// TraceHeader is the HTTP header propagating span identity between
// processes: the client stamps each request with its open request span's
// ref, and the server parents its handler span there, so one training
// round can be stitched across the device and FLCC traces.
const TraceHeader = "Helcfl-Trace"

// FormatTraceHeader renders a span ref for the TraceHeader value.
func FormatTraceHeader(r span.Ref) string { return span.FormatRef(r) }

// ParseTraceHeader parses a TraceHeader value; the zero Ref (with ok
// false) is returned for an absent or malformed header, in which case the
// server falls back to its own trace root.
func ParseTraceHeader(v string) (span.Ref, bool) {
	if v == "" {
		return span.Ref{}, false
	}
	r, err := span.ParseRef(v)
	if err != nil {
		return span.Ref{}, false
	}
	return r, true
}

// Phase is the FLCC lifecycle.
type Phase string

// FLCC phases.
const (
	// PhaseRegistering collects device resource information (Algorithm 1,
	// lines 1–2).
	PhaseRegistering Phase = "registering"
	// PhaseTraining runs iterative rounds (lines 3–11).
	PhaseTraining Phase = "training"
	// PhaseDone means the round budget is exhausted.
	PhaseDone Phase = "done"
)

// RegisterRequest is the device's resource report.
type RegisterRequest struct {
	// User is the device's index in [0, expected fleet size).
	User int `json:"user"`
	// NumSamples is |D_q|.
	NumSamples int `json:"num_samples"`
	// FMin, FMax bound the DVFS range in Hz.
	FMin float64 `json:"f_min"`
	FMax float64 `json:"f_max"`
	// TxPower and ChannelGain parameterize Eq. (6).
	TxPower     float64 `json:"tx_power"`
	ChannelGain float64 `json:"channel_gain"`
}

// PollResponse tells a device what to do now.
type PollResponse struct {
	Phase Phase `json:"phase"`
	// Round is the current training round (valid while training).
	Round int `json:"round"`
	// Selected reports whether the polling device participates this round.
	Selected bool `json:"selected"`
	// FreqHz is the Algorithm 3 operating frequency when selected.
	FreqHz float64 `json:"freq_hz,omitempty"`
}

// StatusResponse summarizes server progress.
type StatusResponse struct {
	Phase      Phase `json:"phase"`
	Round      int   `json:"round"`
	Rounds     int   `json:"rounds"`
	Registered int   `json:"registered"`
	// Uploads counts models received so far in the current round.
	Uploads   int   `json:"uploads"`
	BytesUp   int64 `json:"bytes_up"`
	BytesDown int64 `json:"bytes_down"`
}
