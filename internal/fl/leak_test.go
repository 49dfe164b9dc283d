package fl

import (
	"testing"

	"helcfl/internal/leaktest"
)

// TestMain gates the whole fl test binary behind the goroutine-leak
// harness: every engine's local-update worker pool must be stopped (Result
// on a finished campaign, Close on an abandoned one) and its workers gone
// by the time the last test finishes.
func TestMain(m *testing.M) {
	leaktest.Main(m)
}
