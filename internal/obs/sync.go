package obs

import "sync"

// Synchronized wraps a sink so engines running in parallel — grid campaign
// cells each drive their own engine — can share it: every event handler
// runs under one mutex. A single engine never calls its sink concurrently
// with itself, but a shared sink sees interleaved calls from many engines;
// wrap any sink that is not already safe for concurrent use. Returns nil
// for a nil sink so callers keep the nil-sink fast path.
func Synchronized(s EventSink) EventSink {
	if s == nil {
		return nil
	}
	return &syncSink{sink: s}
}

type syncSink struct {
	mu   sync.Mutex
	sink EventSink
}

// OnEvent implements EventSink.
func (s *syncSink) OnEvent(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink.OnEvent(ev)
}
