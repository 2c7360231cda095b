package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"medchain/internal/experiments"
)

// TestRunSelection builds the binary and checks the -run contract: an
// unknown id is rejected with exit 2 and the valid list (it used to be
// a silent no-op that exited 0), so is `sim` mixed with experiment ids
// (the soak used to run and every other id was silently dropped), a
// known id prints its table, and every id of the registry is accepted.
func TestRunSelection(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "benchmed")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	for _, bad := range []string{"e99", "e1,sim"} {
		out, err := exec.Command(bin, "-run", bad).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-run %s: err=%v, want exit 2\n%s", bad, err, out)
		}
		if !strings.Contains(string(out), "valid ids: all sim e1 ") || !strings.Contains(string(out), " e10 ") {
			t.Fatalf("-run %s did not print the valid list:\n%s", bad, out)
		}
		if strings.Contains(string(out), "E1  Broadcast") || strings.Contains(string(out), "sim soak") {
			t.Fatalf("-run %s ran something before rejecting:\n%s", bad, out)
		}
	}
	if out, _ := exec.Command(bin, "-run", "e99").CombinedOutput(); !strings.Contains(string(out), `"e99"`) {
		t.Fatalf("-run e99 did not name the bad id:\n%s", out)
	}

	out, err := exec.Command(bin, "-run", "e10", "-quick").CombinedOutput()
	if err != nil {
		t.Fatalf("-run e10 -quick: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "E10 Parallel execution") || !strings.Contains(string(out), "benchmed: done in") {
		t.Fatalf("-run e10 -quick printed no table:\n%s", out)
	}

	all := experiments.All()
	for _, e := range all {
		for _, id := range []string{e.ID, strings.ToLower(e.ID)} {
			got, soak, err := selectEntries(id, all)
			if err != nil || soak || len(got) != 1 || got[0].ID != e.ID {
				t.Errorf("-run %s selected %v (soak=%v, err=%v), want %s alone", id, got, soak, err, e.ID)
			}
		}
	}
	if got, _, err := selectEntries("all", all); err != nil || len(got) != len(all) {
		t.Errorf("-run all selected %d of %d entries (err=%v)", len(got), len(all), err)
	}
	if _, soak, err := selectEntries("sim", all); err != nil || !soak {
		t.Errorf("-run sim: soak=%v err=%v", soak, err)
	}
}

// TestFailedVerifyExitsOne: a sweep that contradicts its entry's claim
// prints its tables and exits 1, with no "done" line.
func TestFailedVerifyExitsOne(t *testing.T) {
	fake := []experiments.Experiment{{ID: "X1", Run: func(experiments.Size, int64) ([]experiments.Table, error) {
		return []experiments.Table{{Title: "X1 fake", Header: []string{"nodes"}, Rows: [][]string{{"8"}}}},
			errors.New("throughput rose with nodes")
	}}}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "x1"}, fake, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "X1 fake") || strings.Contains(stdout.String(), "benchmed: done") {
		t.Fatalf("stdout:\n%s", &stdout)
	}
	if !strings.Contains(stderr.String(), "benchmed: x1: throughput rose with nodes") {
		t.Fatalf("stderr:\n%s", &stderr)
	}
}
