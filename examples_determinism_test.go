package repro_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// exampleArgs shrinks the long-running examples so the smoke test stays
// CI-sized; determinism does not depend on the request count.
var exampleArgs = map[string][]string{
	"limitstudy": {"-requests", "5000"},
	"lowrpm":     {"-requests", "5000"},
	"raidarray":  {"-requests", "5000"},
}

// TestExamplesDeterministic builds every program under examples/ and
// runs each twice, asserting byte-identical stdout. The examples are
// the public-API surface the internal determinism regression tests do
// not cover: a wall-clock read, a global RNG draw, or an unsorted map
// range in the facade or an example would show up here as a diff
// between the two runs. An exampleArgs key that names no example fails
// the test: a stale key would otherwise be ignored without notice.
func TestExamplesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example twice")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for name := range exampleArgs {
		if fi, err := os.Stat(filepath.Join("examples", name)); err != nil || !fi.IsDir() {
			t.Errorf("exampleArgs names %q, which is not a directory under examples/", name)
		}
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building examples: %v\n%s", err, out)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			first := runExample(t, filepath.Join(bin, name), exampleArgs[name])
			if len(bytes.TrimSpace(first)) == 0 {
				t.Fatalf("%s produced no output", name)
			}
			second := runExample(t, filepath.Join(bin, name), exampleArgs[name])
			if !bytes.Equal(first, second) {
				t.Errorf("%s: two runs differ\nfirst:\n%s\nsecond:\n%s", name, first, second)
			}
		})
	}
}

func runExample(t *testing.T, bin string, args []string) []byte {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr:\n%s", bin, args, err, stderr.String())
	}
	return stdout.Bytes()
}
