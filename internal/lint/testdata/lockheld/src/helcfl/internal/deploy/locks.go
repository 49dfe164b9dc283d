package deploy

import (
	"errors"
	"net/http"
	"sync"
	"time"

	"helcfl/internal/checkpoint"
)

var errBoom = errors.New("boom")

type C struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	n    int
	buf  []byte
	path string
	wal  *checkpoint.WAL
	http *http.Client
}

// Approved shapes: straight-line critical sections, deferred unlocks,
// snapshot-then-write, and read locks.

func (c *C) bump() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *C) deferredUnlock() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *C) closureUnlock() {
	c.mu.Lock()
	defer func() { c.mu.Unlock() }()
	c.n++
}

func (c *C) readUnderRLock() int {
	c.rw.RLock()
	defer c.rw.RUnlock()
	return c.n
}

// snapshotThenWrite is the approved durability shape: copy under the lock,
// fsync outside it.
func (c *C) snapshotThenWrite() error {
	c.mu.Lock()
	payload := append([]byte(nil), c.buf...)
	c.mu.Unlock()
	return checkpoint.WriteFile(c.path, payload)
}

// Violations: blocking operations while the lock is held.

func (c *C) appendUnderLock(rec checkpoint.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wal.Append(rec) // want "checkpoint.WAL.Append fsyncs a WAL record to disk while c.mu.Lock\(\) is held"
}

func (c *C) fetchUnderLock(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.http.Do(req) // want "http.Client.Do does an HTTP round-trip while c.mu.Lock\(\) is held"
}

func (c *C) napUnderLock() {
	c.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep sleeps while c.mu.Lock\(\) is held"
	c.mu.Unlock()
}

func (c *C) sendUnderLock(ch chan int) {
	c.mu.Lock()
	ch <- c.n // want "channel send blocks until received while c.mu.Lock\(\) is held"
	c.mu.Unlock()
}

func (c *C) recvUnderLock(ch chan int) int {
	c.mu.Lock()
	v := <-ch // want "channel receive blocks until sent while c.mu.Lock\(\) is held"
	c.mu.Unlock()
	return v
}

func (c *C) selectUnderLock(ch chan int, done chan struct{}) {
	c.mu.Lock()
	select { // want "select blocks on channel operations while c.mu.Lock\(\) is held"
	case <-ch:
	case <-done:
	}
	c.mu.Unlock()
}

func (c *C) waitUnderLock(wg *sync.WaitGroup) {
	c.mu.Lock()
	wg.Wait() // want "sync.WaitGroup.Wait waits for goroutines while c.mu.Lock\(\) is held"
	c.mu.Unlock()
}

func (c *C) sleepUnderRLock() {
	c.rw.RLock()
	time.Sleep(time.Millisecond) // want "time.Sleep sleeps while c.rw.RLock\(\) is held"
	c.rw.RUnlock()
}

// flushLocked pins the *Locked naming convention: the body runs entirely
// under the caller's lock.
func (c *C) flushLocked() error {
	return checkpoint.WriteFile(c.path, c.buf) // want "checkpoint.WriteFile writes and fsyncs a snapshot while flushLocked runs under the caller's lock"
}

// Violations: the lock escapes on a path.

func (c *C) leaky(fail bool) error {
	c.mu.Lock() // want "c.mu.Lock\(\) is not released on all paths \(return"
	if fail {
		return errBoom
	}
	c.mu.Unlock()
	return nil
}

func (c *C) heldOffEnd() {
	c.mu.Lock() // want "c.mu.Lock\(\) is not released on all paths \(function end"
	c.n++
}

// allowedAppend pins the escape hatch: WAL-before-ack sites justify the
// blocking append under the lock.
func (c *C) allowedAppend(rec checkpoint.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	//helcfl:allow(lockheld) the record must be durable before the lock releases
	return c.wal.Append(rec)
}
