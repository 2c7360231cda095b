//go:build !race

package main

import (
	"strings"
	"testing"

	"medchain/internal/clitest"
)

// TestGolden: the audit over the default COMPare-shaped corpus, as a
// summary and with the per-trial findings. The corpus is seeded and the
// output holds counts and trial IDs only, so nothing but durations is
// masked.
func TestGolden(t *testing.T) {
	bin := clitest.Build(t)
	clitest.Golden(t, "default", bin, nil)
	clitest.Golden(t, "verbose", bin, nil, "-v")
}

// TestExitCodes: a flag value that does not parse exits 2 before any
// trial is registered.
func TestExitCodes(t *testing.T) {
	out, code := clitest.Run(t, clitest.Build(t), "-trials", "many")
	if code != 2 || strings.Contains(out, "registering") {
		t.Fatalf("bad flag value: exit %d\n%s", code, out)
	}
}
