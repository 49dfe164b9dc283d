package tensor

import "testing"

// hasAVX is what package init detected, before any test flips useAVX.
var hasAVX = useAVX

// withAVX sets useAVX for the rest of t, restoring it when t ends. Turning
// the lanes on skips t on a CPU without AVX. Tests that call it must not
// run in parallel with others: useAVX is package state.
func withAVX(t *testing.T, on bool) {
	t.Helper()
	if on && !hasAVX {
		t.Skip("CPU or OS does not support AVX")
	}
	prev := useAVX
	useAVX = on
	t.Cleanup(func() { useAVX = prev })
}
