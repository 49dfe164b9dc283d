//go:build !amd64

package tensor

import "testing"

// withAVX skips t when asked for the AVX lanes, which only amd64 has; off
// is the only mode here.
func withAVX(t *testing.T, on bool) {
	t.Helper()
	if on {
		t.Skip("AVX lanes are amd64-only")
	}
}
