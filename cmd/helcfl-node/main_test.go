package main

import (
	"strings"
	"testing"
)

// TestRunUsageAndModes pins the node roles: a deployment is a server and
// its clients, and any other mode or flag is rejected.
func TestRunUsageAndModes(t *testing.T) {
	err := run(nil)
	if err == nil || !strings.Contains(err.Error(), "<serve|client>") {
		t.Fatalf("no args: got %v, want the <serve|client> usage", err)
	}
	err = run([]string{"worker"})
	if err == nil || !strings.Contains(err.Error(), `unknown mode "worker"`) {
		t.Fatalf("worker: got %v, want an unknown-mode error", err)
	}
	for _, flag := range []string{"-coordinator", "-name"} {
		err := run([]string{"client", flag, "x"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("removed flag %s: got %v, want an unknown-flag error", flag, err)
		}
	}
}
