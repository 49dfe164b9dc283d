package lint_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"helcfl/internal/lint"
)

// plant is one plausible violation planted in a copy of the module's real
// sources: each edit replaces text that occurs exactly once in file, and the
// analyzer named by rule must report the line on which want begins.
type plant struct {
	rule  string
	file  string
	edits [][2]string
	want  string
}

// plants holds one plant per analyzer, each in its own file of a package
// the analyzer scopes. Every one is a mistake that passes the module's
// runtime tests: that is what keeps its analyzer (docs/STATIC_ANALYSIS.md).
var plants = []plant{
	{
		// The Dirichlet split's fallback for a vanishing alpha draws from
		// the global source, so that partition no longer follows the seed.
		rule:  "nondeterminism",
		file:  "internal/dataset/dirichlet.go",
		edits: [][2]string{{"\t\tout[rng.Intn(k)] = 1", "\t\tout[rand.Intn(k)] = 1"}},
		want:  "out[rand.Intn(k)] = 1",
	},
	{
		// The trace summary ranges its scheme map instead of the
		// first-appearance order, so its rows come out in map order.
		rule: "maporder",
		file: "internal/trace/summary.go",
		edits: [][2]string{{
			"\tfor _, scheme := range order {\n\t\trs := byScheme[scheme]\n\t\ts := Summary{Scheme: scheme, Rounds: len(rs)}",
			"\tfor scheme, rs := range byScheme {\n\t\ts := Summary{Scheme: scheme, Rounds: len(rs)}",
		}},
		want: "out = append(out, s)",
	},
	{
		// The transmit-delay cache compares bandwidths with == instead of
		// by bit pattern.
		rule: "floatcompare",
		file: "internal/core/scheduler.go",
		edits: [][2]string{{
			"\tcached := b(ch.BandwidthHz) == b(s.ch.BandwidthHz) &&",
			"\tcached := ch.BandwidthHz == s.ch.BandwidthHz &&",
		}},
		want: "cached := ch.BandwidthHz == s.ch.BandwidthHz",
	},
	{
		// The snapshot's temp file is closed without checking the error,
		// so a failed write-back is acknowledged as durable.
		rule: "durability",
		file: "internal/checkpoint/checkpoint.go",
		edits: [][2]string{{
			"\tif err := tmp.Close(); err != nil {\n\t\tos.Remove(tmpName)\n\t\treturn fmt.Errorf(\"checkpoint: close temp: %w\", err)\n\t}",
			"\ttmp.Close()",
		}},
		want: "\ttmp.Close()\n",
	},
	{
		// The deploy client's poll drops the caller's context, so shutdown
		// cannot abort a request in flight.
		rule: "ctxflow",
		file: "internal/deploy/client.go",
		edits: [][2]string{{
			"\t\treturn http.NewRequestWithContext(ctx, http.MethodGet, url, nil)",
			"\t\treturn http.NewRequest(http.MethodGet, url, nil)",
		}},
		want: "http.NewRequest(http.MethodGet, url, nil)",
	},
	{
		// A cell returns early when its environment fails to build,
		// before the envbuild span ends.
		rule: "spanend",
		file: "internal/experiments/cells.go",
		edits: [][2]string{{
			"\t\t\tenv, err := CachedEnv(p, s, seed)\n\t\t\tif err == nil && step != nil {",
			"\t\t\tenv, err := CachedEnv(p, s, seed)\n\t\t\tif err != nil {\n\t\t\t\treturn nil, err\n\t\t\t}\n\t\t\tif step != nil {",
		}},
		want: "_, envSp := span.StartCtx(ctx, \"cell.envbuild\")",
	},
	{
		// The deferred unlock moved below an early return, which now
		// leaves the server locked.
		rule: "lockheld",
		file: "internal/deploy/server.go",
		edits: [][2]string{{
			"\ts.mu.Lock()\n\tdefer s.mu.Unlock()\n\tif s.global == nil {\n\t\treturn nil\n\t}",
			"\ts.mu.Lock()\n\tif s.global == nil {\n\t\treturn nil\n\t}\n\tdefer s.mu.Unlock()",
		}},
		want: "s.mu.Lock()\n\tif s.global == nil {",
	},
}

// TestPlantedMutations copies the module's non-test sources, applies every
// plant, loads the copy once, and requires each analyzer to report exactly
// the line of its own plant and nothing else unsuppressed. A plant whose
// anchor text is gone fails, so the plants follow the code they mutate.
func TestPlantedMutations(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := copySources(root, dir); err != nil {
		t.Fatal(err)
	}

	planted := map[string]bool{} // rule → has a plant
	files := map[string]bool{}
	want := map[string]string{} // "file:line" → rule
	for _, p := range plants {
		// One plant per file, so no later edit moves an earlier plant's line.
		if files[p.file] {
			t.Fatalf("two plants in %s", p.file)
		}
		files[p.file], planted[p.rule] = true, true
		path := filepath.Join(dir, filepath.FromSlash(p.file))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := string(data)
		for _, e := range p.edits {
			if n := strings.Count(src, e[0]); n != 1 {
				t.Fatalf("%s plant: anchor occurs %d times in %s, want 1:\n%s", p.rule, n, p.file, e[0])
			}
			src = strings.Replace(src, e[0], e[1], 1)
		}
		if n := strings.Count(src, p.want); n != 1 {
			t.Fatalf("%s plant: want text occurs %d times in the planted %s, want 1:\n%s", p.rule, n, p.file, p.want)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		line := 1 + strings.Count(src[:strings.Index(src, p.want)], "\n")
		want[fmt.Sprintf("%s:%d", p.file, line)] = p.rule
	}
	for _, a := range lint.Analyzers() {
		if !planted[a.Name] {
			t.Errorf("analyzer %s has no plant", a.Name)
		}
	}

	pkgs, err := lint.NewLoader().LoadModule(dir)
	if err != nil {
		t.Fatalf("load planted module: %v", err)
	}
	for _, f := range lint.Run(pkgs, lint.Analyzers()) {
		if f.Suppressed {
			continue
		}
		rel, err := filepath.Rel(dir, f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("%s:%d", filepath.ToSlash(rel), f.Pos.Line)
		if want[key] == f.Rule {
			delete(want, key)
			continue
		}
		t.Errorf("finding off the plants: %s: %s: %s", key, f.Rule, f.Message)
	}
	for key, rule := range want {
		t.Errorf("%s reported nothing at its plant %s", rule, key)
	}
}

// copySources copies go.mod and every non-test Go file of the module at
// root into dir, skipping what the go tool skips: testdata and directories
// whose names start with "." or "_".
func copySources(root, dir string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
}
