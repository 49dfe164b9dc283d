package core

// core is not in policy.GoroutineScopedPackages, so even a bare goroutine
// produces nothing here — the rule is scoped to the concurrent runtime.

func work() {}

func outOfScope() {
	go func() {
		work()
	}()
}
