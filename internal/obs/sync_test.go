package obs

import (
	"sync"
	"testing"
)

// countingSink is deliberately not safe for concurrent use: plain int
// increments that the race detector flags when called from two goroutines.
type countingSink struct {
	rounds int
	runs   int
}

func (c *countingSink) OnEvent(ev Event) {
	switch ev.(type) {
	case RoundEndEvent:
		c.rounds++
	case RunEndEvent:
		c.runs++
	}
}

func TestSynchronizedNil(t *testing.T) {
	if Synchronized(nil) != nil {
		t.Fatal("Synchronized(nil) must stay nil to keep the fast path")
	}
}

func TestSynchronizedSerializesConcurrentEngines(t *testing.T) {
	raw := &countingSink{}
	s := Synchronized(raw)
	const engines, rounds = 8, 50
	var wg sync.WaitGroup
	for e := 0; e < engines; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s.OnEvent(RoundEndEvent{Round: r})
			}
			s.OnEvent(RunEndEvent{})
		}()
	}
	wg.Wait()
	if raw.rounds != engines*rounds {
		t.Fatalf("rounds = %d, want %d", raw.rounds, engines*rounds)
	}
	if raw.runs != engines {
		t.Fatalf("runs = %d, want %d", raw.runs, engines)
	}
}
