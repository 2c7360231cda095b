package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSelection builds the binary and checks the -run contract: an
// unknown id is rejected with exit 2 and the valid list (it used to be
// a silent no-op that exited 0), and a known id prints its table.
func TestRunSelection(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "benchmed")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	out, err := exec.Command(bin, "-run", "e99").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-run e99: err=%v, want exit 2\n%s", err, out)
	}
	if !strings.Contains(string(out), `"e99"`) || !strings.Contains(string(out), "e10") {
		t.Fatalf("-run e99 did not name the bad id and the valid list:\n%s", out)
	}

	out, err = exec.Command(bin, "-run", "e10", "-quick").CombinedOutput()
	if err != nil {
		t.Fatalf("-run e10 -quick: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "E10 Parallel execution") || !strings.Contains(string(out), "benchmed: done in") {
		t.Fatalf("-run e10 -quick printed no table:\n%s", out)
	}
}
