// Package flight is the crash-forensics pillar of the observability
// stack: a flight recorder that pairs the span ring buffer with a ring of
// recent engine events, and dumps both as one JSONL file when the process
// panics, receives SIGQUIT, or serves /debug/flightrec. The dump is
// readable by internal/obs/span.Read (span lines carry "name"; event and
// metadata lines do not and are skipped), so helcfl-inspect works on
// flight dumps and live trace files alike.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"helcfl/internal/obs"
	"helcfl/internal/obs/span"
)

// Recorder couples a span recorder with an event ring. Both may be nil:
// a nil span recorder dumps events only, and vice versa.
type Recorder struct {
	spans *span.Recorder
	ring  *eventRing
}

// New builds a flight recorder keeping the last eventCap engine events
// alongside sp's span ring. eventCap <= 0 selects a default of 512.
func New(sp *span.Recorder, eventCap int) *Recorder {
	if eventCap <= 0 {
		eventCap = 512
	}
	return &Recorder{spans: sp, ring: newEventRing(eventCap)}
}

// Sink returns the obs.EventSink feeding the event ring; compose it with
// the run's real sink via obs.Multi.
func (r *Recorder) Sink() obs.EventSink { return r.ring }

// metaLine heads every dump; it has no "name" field so span.Read skips it.
type metaLine struct {
	FlightRec int    `json:"flightrec"`
	UnixNs    int64  `json:"unix_ns"`
	PID       int    `json:"pid"`
	Trace     uint64 `json:"trace,omitempty"`
	Dropped   uint64 `json:"spans_dropped,omitempty"`
	Events    int    `json:"events"`
}

// eventLine wraps one buffered engine event; no "name" field either.
type eventLine struct {
	Event string      `json:"event"`
	Data  interface{} `json:"data"`
}

// WriteDump writes the full flight state as JSONL: one metadata line,
// then every buffered span, then every buffered event (oldest first).
func (r *Recorder) WriteDump(w io.Writer) error {
	enc := json.NewEncoder(w)
	events := r.ring.snapshot()
	meta := metaLine{
		FlightRec: 1,
		UnixNs:    time.Now().UnixNano(),
		PID:       os.Getpid(),
		Trace:     r.spans.TraceID(),
		Dropped:   r.spans.Dropped(),
		Events:    len(events),
	}
	if err := enc.Encode(meta); err != nil {
		return fmt.Errorf("flight: encode meta: %w", err)
	}
	for _, rec := range r.spans.Snapshot() {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("flight: encode span: %w", err)
		}
	}
	for _, ev := range events {
		if err := enc.Encode(eventLine{Event: ev.kind, Data: ev.data}); err != nil {
			return fmt.Errorf("flight: encode event: %w", err)
		}
	}
	return nil
}

// DumpTo writes the dump to dir/flightrec-<unixnano>-<pid>.jsonl,
// creating dir if needed, and returns the file path.
func (r *Recorder) DumpTo(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("flight: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("flightrec-%d-%d.jsonl", time.Now().UnixNano(), os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("flight: %w", err)
	}
	werr := r.WriteDump(f)
	cerr := f.Close()
	if werr != nil {
		return path, werr
	}
	if cerr != nil {
		return path, fmt.Errorf("flight: close dump: %w", cerr)
	}
	return path, nil
}

// Handler serves the dump over HTTP for live inspection of a running
// node (mounted at /debug/flightrec by the deploy server).
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		if err := r.WriteDump(w); err != nil {
			// Headers are gone; best effort is to drop the connection.
			return
		}
	})
}

// Install arranges a dump to dir on each received signal (default
// SIGQUIT) and returns a stop function releasing the handler. The process
// keeps running after a dump — SIGQUIT becomes "photograph the last N
// seconds", not "die".
func (r *Recorder) Install(dir string, sigs ...os.Signal) (stop func()) {
	if len(sigs) == 0 {
		sigs = []os.Signal{syscall.SIGQUIT}
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, sigs...)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-ch:
				if path, err := r.DumpTo(dir); err != nil {
					fmt.Fprintf(os.Stderr, "flight: dump failed: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "flight: dumped %s\n", path)
				}
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			signal.Stop(ch)
			close(done)
		})
	}
}

// DumpOnPanic dumps to dir when the calling goroutine is panicking, then
// re-panics. Use in a defer at the top of main-like functions:
//
//	defer fr.DumpOnPanic("artifacts")
func (r *Recorder) DumpOnPanic(dir string) {
	if p := recover(); p != nil {
		if path, err := r.DumpTo(dir); err == nil {
			fmt.Fprintf(os.Stderr, "flight: panic dump %s\n", path)
		}
		panic(p)
	}
}

// event is one buffered engine event with its kind tag.
type event struct {
	kind string
	data interface{}
}

// eventRing implements obs.EventSink over a fixed ring of recent events.
// Unlike engine sinks it must be internally synchronized: deploy servers
// feed it from handler goroutines, and a dump can race with recording.
type eventRing struct {
	mu    sync.Mutex
	ring  []event
	next  int
	total uint64
}

func newEventRing(capacity int) *eventRing {
	return &eventRing{ring: make([]event, 0, capacity)}
}

func (e *eventRing) push(kind string, data interface{}) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.ring) < cap(e.ring) {
		e.ring = append(e.ring, event{kind, data})
		e.next = len(e.ring) % cap(e.ring)
	} else {
		e.ring[e.next] = event{kind, data}
		e.next = (e.next + 1) % cap(e.ring)
	}
	e.total++
}

func (e *eventRing) snapshot() []event {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.ring) < cap(e.ring) || e.next == 0 {
		out := make([]event, len(e.ring))
		copy(out, e.ring)
		return out
	}
	out := make([]event, 0, len(e.ring))
	out = append(out, e.ring[e.next:]...)
	out = append(out, e.ring[:e.next]...)
	return out
}

// OnEvent implements obs.EventSink.
func (e *eventRing) OnEvent(ev obs.Event) { e.push(ev.Kind(), ev) }
