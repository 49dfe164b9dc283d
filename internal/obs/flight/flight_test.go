package flight

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"helcfl/internal/obs"
	"helcfl/internal/obs/span"
)

func fillRecorder(t *testing.T) *Recorder {
	t.Helper()
	rec := span.NewRecorder(11, span.Options{Capacity: 16})
	sp := rec.Start(span.Ref{}, "fl.round")
	sp.End()
	fr := New(rec, 4)
	sink := fr.Sink()
	sink.OnEvent(obs.RunStartEvent{Scheme: "HELCFL", Users: 8})
	for i := 0; i < 6; i++ { // overflow the 4-slot event ring
		sink.OnEvent(obs.RoundEndEvent{Round: i})
	}
	return fr
}

func TestWriteDumpReadableBySpanReader(t *testing.T) {
	fr := fillRecorder(t)
	var sb strings.Builder
	if err := fr.WriteDump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"flightrec":1`) {
		t.Fatal("missing meta line")
	}
	if !strings.Contains(out, `"event":"RoundEnd"`) {
		t.Fatal("missing event lines")
	}
	// The ring keeps only the last 4 events: rounds 2..5 (RunStart evicted).
	if strings.Contains(out, `"event":"RunStart"`) {
		t.Fatal("event ring failed to evict oldest")
	}
	recs, err := span.Read(strings.NewReader(out))
	if err != nil {
		t.Fatalf("span.Read on dump: %v", err)
	}
	if len(recs) != 1 || recs[0].Name != "fl.round" {
		t.Fatalf("dump spans: %+v", recs)
	}
}

func TestDumpToWritesFile(t *testing.T) {
	fr := fillRecorder(t)
	dir := t.TempDir()
	path, err := fr.DumpTo(filepath.Join(dir, "artifacts"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(filepath.Base(path), "flightrec-") {
		t.Fatalf("unexpected dump name %q", path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := span.Read(strings.NewReader(string(raw))); err != nil || len(recs) != 1 {
		t.Fatalf("dump file unreadable: %v (%d recs)", err, len(recs))
	}
}

func TestHandlerServesDump(t *testing.T) {
	fr := fillRecorder(t)
	rr := httptest.NewRecorder()
	fr.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flightrec", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	if recs, err := span.Read(strings.NewReader(rr.Body.String())); err != nil || len(recs) != 1 {
		t.Fatalf("handler dump unreadable: %v (%d recs)", err, len(recs))
	}
}

func TestNilSpanRecorderDumpsEventsOnly(t *testing.T) {
	fr := New(nil, 4)
	fr.Sink().OnEvent(obs.RoundStartEvent{Round: 0})
	var sb strings.Builder
	if err := fr.WriteDump(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"event":"RoundStart"`) {
		t.Fatal("events missing from span-less dump")
	}
}

func TestDumpOnPanic(t *testing.T) {
	fr := fillRecorder(t)
	dir := t.TempDir()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("DumpOnPanic swallowed the panic")
			}
		}()
		defer fr.DumpOnPanic(dir)
		panic("boom")
	}()
	matches, err := filepath.Glob(filepath.Join(dir, "flightrec-*.jsonl"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("panic dump files: %v (%v)", matches, err)
	}
}

func TestInstallStopIsIdempotent(t *testing.T) {
	fr := fillRecorder(t)
	stop := fr.Install(t.TempDir())
	stop()
	stop() // second call must not panic or deadlock
}
