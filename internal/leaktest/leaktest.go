// Package leaktest is a goroutine-leak harness for test suites of the
// concurrent runtime packages (fleet, deploy, fl, grid, obs). It snapshots
// the live goroutines before the work under test (runtime.Stack with
// all=true), diffs by goroutine ID afterwards, filters the known-benign
// residents (the testing harness, signal plumbing, idle HTTP keep-alive
// loops), and retries for a grace period so goroutines that are mid-exit
// when the test finishes do not flake the suite. Anything still alive
// after the grace period is a leak: it outlived the campaign that spawned
// it.
//
// Wire a whole package with
//
//	func TestMain(m *testing.M) { leaktest.Main(m) }
//
// or gate a single test with
//
//	defer leaktest.Check(t)()
package leaktest

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// grace is how long a goroutine gets to finish exiting before it counts as
// leaked. Scheduler handoff after a channel close or a server shutdown is
// microseconds; seconds of margin keep loaded CI machines from flaking.
const grace = 5 * time.Second

// benign are stack substrings that mark a goroutine as an accepted
// resident, not a leak. Deliberately narrow: a filter that matches real
// work would hide real leaks.
var benign = []string{
	// The current goroutine taking the snapshot.
	"helcfl/internal/leaktest.stacks(",
	// The testing harness's own machinery.
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*T).Run(",
	"testing.runTests(",
	// Runtime and signal plumbing that starts lazily and lives forever.
	"runtime.ensureSigM",
	"os/signal.signal_recv",
	"os/signal.loop",
	// Idle HTTP keep-alive connections: closed lazily by the transport,
	// not owned by any one test.
	"net/http.(*persistConn).readLoop",
	"net/http.(*persistConn).writeLoop",
}

// Check snapshots the live goroutines and returns the verification to
// defer: it fails t if goroutines born after the snapshot are still alive
// once the grace period runs out.
//
//	defer leaktest.Check(t)()
func Check(t testing.TB) func() {
	base := ids()
	return func() {
		t.Helper()
		if leaked := settle(base, grace); len(leaked) > 0 {
			t.Errorf("leaktest: %d goroutine(s) leaked:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
		}
	}
}

// Main wraps testing.M for a package-wide gate: every goroutine spawned
// anywhere in the test binary must be gone by the time the last test
// finishes, or the binary exits 1 with the offending stacks on stderr.
func Main(m *testing.M) {
	base := ids()
	code := m.Run()
	if leaked := settle(base, grace); len(leaked) > 0 {
		fmt.Fprintf(os.Stderr, "leaktest: %d goroutine(s) leaked past the test binary:\n\n%s\n", len(leaked), strings.Join(leaked, "\n\n"))
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// settle polls until no new non-benign goroutines remain or the deadline
// passes, returning the stacks of the survivors. Between polls it nudges
// the default HTTP transport to drop idle connections.
func settle(base map[int64]bool, deadline time.Duration) []string {
	var leaked []string
	for start, wait := time.Now(), time.Millisecond; ; wait *= 2 {
		leaked = leakedSince(base)
		if len(leaked) == 0 || time.Since(start) > deadline {
			return leaked
		}
		if tr, ok := http.DefaultTransport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
		if wait > 100*time.Millisecond {
			wait = 100 * time.Millisecond
		}
		time.Sleep(wait)
	}
}

// leakedSince returns the stacks of live goroutines that are neither in
// base nor benign, sorted for stable output.
func leakedSince(base map[int64]bool) []string {
	var leaked []string
	for id, stack := range stacks() {
		if base[id] || isBenign(stack) {
			continue
		}
		leaked = append(leaked, stack)
	}
	sort.Strings(leaked)
	return leaked
}

func isBenign(stack string) bool {
	for _, pat := range benign {
		if strings.Contains(stack, pat) {
			return true
		}
	}
	return false
}

// ids returns the set of currently live goroutine IDs.
func ids() map[int64]bool {
	set := map[int64]bool{}
	for id := range stacks() {
		set[id] = true
	}
	return set
}

// stacks captures every goroutine's stack, keyed by goroutine ID.
func stacks() map[int64]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[int64]string{}
	for _, block := range strings.Split(string(buf), "\n\n") {
		id, ok := goroutineID(block)
		if !ok {
			continue
		}
		out[id] = strings.TrimSpace(block)
	}
	return out
}

// goroutineID parses the "goroutine N [state]:" header of one stack block.
func goroutineID(block string) (int64, bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(block), "goroutine ")
	if !ok {
		return 0, false
	}
	end := strings.IndexByte(rest, ' ')
	if end < 0 {
		return 0, false
	}
	id, err := strconv.ParseInt(rest[:end], 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}
