package lint

// Class is a package's stance toward the determinism contract.
type Class string

const (
	// ClassDeterministic marks a package on the replayable-from-seed path:
	// Algorithms 1–3, the model substrate, and everything the bit-identity
	// tests cover. No wall clock, no global math/rand, no unordered map
	// iteration feeding order-sensitive work.
	ClassDeterministic Class = "deterministic"
	// ClassRuntime marks a package that interacts with wall clock, OS, or
	// network by design (observability, deployment, chaos injection,
	// durable storage, CLIs). The determinism rules do not apply; the
	// durability and context rules may.
	ClassRuntime Class = "runtime"
)

// Packages classifies every package in the module. This table is the single
// source of truth for which code is on the deterministic path: a module
// package that is missing here is reported as a "policy" finding, so a new
// package must opt in or out explicitly before the tree lints clean.
var Packages = map[string]Class{
	// The public facade re-exports the deterministic core and must stay as
	// replayable as what it wraps.
	"helcfl": ClassDeterministic,

	// The deterministic set: scheduler decisions (Algorithms 2–3), the FL
	// engine (Algorithm 1, Eq. 18 FedAvg), and every model/cost substrate
	// they consume. One stray time.Now() here breaks the sim↔deploy
	// conformance and split-resume guarantees downstream.
	"helcfl/internal/compress":    ClassDeterministic,
	"helcfl/internal/core":        ClassDeterministic,
	"helcfl/internal/dataset":     ClassDeterministic,
	"helcfl/internal/device":      ClassDeterministic,
	"helcfl/internal/experiments": ClassDeterministic,
	"helcfl/internal/fl":          ClassDeterministic,
	"helcfl/internal/grid":        ClassDeterministic,
	"helcfl/internal/metrics":     ClassDeterministic,
	"helcfl/internal/nn":          ClassDeterministic,
	"helcfl/internal/radix":       ClassDeterministic,
	// The span tracer is deterministic in structure (span counts, names,
	// parents, and attributes repeat across runs; only durations vary).
	// Its single audited clock site is span.now(), which carries the one
	// //helcfl:allow(nondeterminism) exemption for the package.
	"helcfl/internal/obs/span":  ClassDeterministic,
	"helcfl/internal/report":    ClassDeterministic,
	"helcfl/internal/selection": ClassDeterministic,
	"helcfl/internal/sim":       ClassDeterministic,
	"helcfl/internal/stats":     ClassDeterministic,
	"helcfl/internal/tensor":    ClassDeterministic,
	"helcfl/internal/trace":     ClassDeterministic,
	"helcfl/internal/wireless":  ClassDeterministic,

	// The runtime set: wall clock, sockets, and disks by design.
	"helcfl/internal/chaos":      ClassRuntime,
	"helcfl/internal/checkpoint": ClassRuntime,
	"helcfl/internal/deploy":     ClassRuntime,
	"helcfl/internal/lint":       ClassRuntime,
	"helcfl/internal/obs":        ClassRuntime,
	// The shared backoff engine sleeps on timers by design.
	"helcfl/internal/retry": ClassRuntime,
	// The flight recorder is crash forensics: signals, wall clock,
	// filesystem dumps, and HTTP by design.
	"helcfl/internal/obs/flight": ClassRuntime,

	// Binaries and runnable examples wire the system to the outside world.
	"helcfl/cmd/helcfl":         ClassRuntime,
	"helcfl/cmd/helcfl-inspect": ClassRuntime,
	"helcfl/cmd/helcfl-lint":    ClassRuntime,
	"helcfl/cmd/helcfl-node":    ClassRuntime,

	"helcfl/examples/battery":       ClassRuntime,
	"helcfl/examples/centralized":   ClassRuntime,
	"helcfl/examples/compression":   ClassRuntime,
	"helcfl/examples/deploy":        ClassRuntime,
	"helcfl/examples/energy":        ClassRuntime,
	"helcfl/examples/heterogeneity": ClassRuntime,
	"helcfl/examples/noniid":        ClassRuntime,
	"helcfl/examples/quickstart":    ClassRuntime,

	// The corpus harness for this package's own tests.
	"helcfl/internal/lint/linttest": ClassRuntime,

	// The goroutine-leak test harness snapshots runtime stacks by design.
	"helcfl/internal/leaktest": ClassRuntime,
}

// DurabilityPackages hold persistence code where a missed fsync or a
// silently dropped Close/Sync/Flush error can lose acknowledged state. The
// durability analyzer applies here.
var DurabilityPackages = map[string]bool{
	"helcfl/internal/checkpoint": true,
	"helcfl/internal/deploy":     true,
}

// ContextPackages make network requests and wait on timers; every request
// and sleep there must flow a context.Context so shutdown and per-request
// deadlines propagate. The ctxflow analyzer applies here.
var ContextPackages = map[string]bool{
	"helcfl/internal/deploy": true,
	"helcfl/internal/retry":  true,
}

// MapOrderExtra extends the maporder analyzer beyond the deterministic set:
// these runtime packages also feed FedAvg and durable state, where an
// iteration-order dependence would diverge replay from the original run.
var MapOrderExtra = map[string]bool{
	"helcfl/internal/checkpoint": true,
	"helcfl/internal/deploy":     true,
}

// ToleranceHelpers are the approved homes for exact float comparison:
// functions whose whole purpose is comparing floats (tolerance helpers,
// bitwise round-trip checks). The floatcompare analyzer skips their bodies.
// Keys are qualified names: "import/path.Func" or "import/path.Type.Method".
var ToleranceHelpers = map[string]bool{
	// trace.Validate screens records for exact NaN/Inf/negative-zero
	// artifacts by design.
	"helcfl/internal/trace.Validate": true,
	// tensor.Equal is bitwise equality by contract — it is what the
	// bit-identity tests compare with.
	"helcfl/internal/tensor.Tensor.Equal": true,
}

// BlockingCalls are module-internal functions that block on I/O (fsync,
// network) and therefore must not run while a mutex is held. Keys are
// qualified names ("import/path.Func" or "import/path.Type.Method"), values
// say why the call blocks; the lockheld analyzer reports them alongside the
// stdlib's own blocking operations.
var BlockingCalls = map[string]string{
	"helcfl/internal/checkpoint.WAL.Append": "fsyncs a WAL record to disk",
	"helcfl/internal/checkpoint.WAL.Reset":  "truncates and fsyncs the WAL",
	"helcfl/internal/checkpoint.WriteFile":  "writes and fsyncs a snapshot",
	"helcfl/internal/checkpoint.ReadFile":   "reads a snapshot from disk",
}

// Classified reports whether path is in the policy table. Corpus packages
// under a lint testdata tree mirror real module paths, so they classify the
// same way.
func Classified(path string) bool {
	_, ok := Packages[path]
	return ok
}

// IsDeterministic reports whether path is on the replayable-from-seed path.
func IsDeterministic(path string) bool {
	return Packages[path] == ClassDeterministic
}

// IsMapOrderScoped reports whether the maporder analyzer applies to path.
func IsMapOrderScoped(path string) bool {
	return IsDeterministic(path) || MapOrderExtra[path]
}

// IsDurability reports whether the durability analyzer applies to path.
func IsDurability(path string) bool { return DurabilityPackages[path] }

// IsContextScoped reports whether the ctxflow analyzer applies to path.
func IsContextScoped(path string) bool { return ContextPackages[path] }
