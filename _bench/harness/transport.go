package harness

import (
	"io"
	"net/http"
	"sync"
	"time"
)

// Exchange is one HTTP request as its client saw it.
type Exchange struct {
	Path  string
	Start time.Time
	// Dur runs from the request being handed to the transport until its
	// response body was read to the end (or closed) — the latency the
	// caller waits out, not just time-to-headers.
	Dur                 time.Duration
	ReqBytes, RespBytes int64
	// Status is 0 when the transport returned an error.
	Status int
}

// Transport is an http.RoundTripper that times every exchange and counts the
// body bytes in both directions. Put it in a client's http.Client to observe
// the wire from outside the program under test.
type Transport struct {
	Base http.RoundTripper

	mu  sync.Mutex
	log []Exchange
}

// Exchanges returns a copy of everything recorded so far.
func (t *Transport) Exchanges() []Exchange {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Exchange(nil), t.log...)
}

func (t *Transport) record(e Exchange) {
	t.mu.Lock()
	t.log = append(t.log, e)
	t.mu.Unlock()
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	ex := Exchange{Path: req.URL.Path, Start: time.Now()}
	var sent *countingReader
	if req.Body != nil && req.Body != http.NoBody {
		// A RoundTripper may not modify the caller's request; count on a
		// shallow copy.
		sent = &countingReader{rc: req.Body}
		req = req.Clone(req.Context())
		req.Body = sent
	}
	resp, err := t.Base.RoundTrip(req)
	if sent != nil {
		ex.ReqBytes = sent.count()
	}
	if err != nil {
		ex.Dur = time.Since(ex.Start)
		t.record(ex)
		return nil, err
	}
	ex.Status = resp.StatusCode
	resp.Body = &countingReader{rc: resp.Body, done: func(n int64) {
		ex.RespBytes = n
		ex.Dur = time.Since(ex.Start)
		t.record(ex)
	}}
	return resp, nil
}

// countingReader counts the bytes read through it and reports the total
// once, at end of stream or Close, whichever comes first.
type countingReader struct {
	rc   io.ReadCloser
	done func(n int64)

	mu       sync.Mutex
	n        int64
	reported bool
}

func (c *countingReader) count() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *countingReader) finish() {
	c.mu.Lock()
	first := !c.reported
	c.reported = true
	n := c.n
	c.mu.Unlock()
	if first && c.done != nil {
		c.done(n)
	}
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.mu.Lock()
	c.n += int64(n)
	c.mu.Unlock()
	if err == io.EOF {
		c.finish()
	}
	return n, err
}

func (c *countingReader) Close() error {
	err := c.rc.Close()
	c.finish()
	return err
}
