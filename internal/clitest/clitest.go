// Package clitest is the golden-output harness of the binaries under
// cmd/ and examples/: build the package the test sits in, run it, mask
// what legitimately differs between two runs (durations, and on request
// block heights and wall-clock-derived digests), and compare with
// testdata/<name>.golden. The goldens were recorded at commit 56c8a1c
// (trialctl's and medchaind's single-durable/-rerun at PR 23);
// `go test ./cmd/... ./examples/... -update-golden` re-records them for
// a deliberate change of what a binary prints.
package clitest

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update-golden", false, "re-record the binaries' golden outputs")

// Mask rewrites one run-dependent field to a fixed token.
type Mask struct {
	re   *regexp.Regexp
	with string
}

var (
	// Durations is applied to every output.
	Durations = Mask{regexp.MustCompile(`\b[0-9]+(\.[0-9]+)?(ns|µs|ms|s)\b`), "<dur>"}
	// Heights masks block heights: how many blocks a demo takes to get
	// somewhere is not what it demonstrates.
	Heights = Mask{regexp.MustCompile(`\b(height[= ]|snapshot@|block )[0-9]+|\b[0-9]+( blocks replayed)`), "${1}<h>${2}"}
	// Digests masks short hex digests of content that embeds a wall
	// clock (block hashes over time.Now() timestamps, envelope nonces).
	Digests = Mask{regexp.MustCompile(`\b[0-9a-f]{8}\b`), "<digest>"}
)

// Literal masks one exact string, e.g. a temporary directory.
func Literal(s, with string) Mask { return Mask{regexp.MustCompile(regexp.QuoteMeta(s)), with} }

// Build compiles the main package in the test's working directory and
// returns the binary's path.
func Build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bin")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// Run executes the binary and returns its combined output and exit code.
func Run(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	return "", 0
}

// Golden runs the binary, expects exit code 0, and holds its masked
// output to testdata/<name>.golden.
func Golden(t *testing.T, name, bin string, masks []Mask, args ...string) {
	t.Helper()
	out, code := Run(t, bin, args...)
	if code != 0 {
		t.Fatalf("%s %v: exit %d\n%s", name, args, code, out)
	}
	got := []byte(out)
	for _, m := range append([]Mask{Durations}, masks...) {
		got = m.re.ReplaceAll(got, []byte(m.with))
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s %v differs from %s\n--- got\n%s\n--- want\n%s", name, args, path, got, want)
	}
}
