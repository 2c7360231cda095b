//go:build !race

package main

import (
	"strings"
	"testing"

	"medchain/internal/clitest"
)

// TestGolden holds what medquery prints on each of its four paths to
// the goldens recorded at 56c8a1c (durations masked).
func TestGolden(t *testing.T) {
	bin := clitest.Build(t)
	size := []string{"-sites", "3", "-patients", "40"}
	for name, args := range map[string][]string{
		"query":      nil,
		"duplicated": {"-duplicated", "average glucose for women"},
		"sql":        {"-sql"},
		"index":      {"-index", "fetch records of women with diabetes"},
	} {
		t.Run(name, func(t *testing.T) {
			clitest.Golden(t, name, bin, nil, append(size, args...)...)
		})
	}
}

// TestExitCodes: a refused query exits 1 with the reason on stderr, and
// a flag value that does not parse exits 2 before anything boots.
// medquery grants before it asks, so no flag combination reaches a
// policy denial; the query it does refuse is a fetch on the analytics
// path (the denial's exit code is examples/dataexchange's golden line
// and core's TestQueryDeniedWithoutGrants).
func TestExitCodes(t *testing.T) {
	bin := clitest.Build(t)
	out, code := clitest.Run(t, bin, "-sites", "2", "-patients", "10", "fetch records of women")
	if code != 1 || !strings.Contains(out, "medquery: core: fetch queries go through FetchRecords") {
		t.Fatalf("refused query: exit %d\n%s", code, out)
	}
	out, code = clitest.Run(t, bin, "-sites", "many")
	if code != 2 || strings.Contains(out, "booting") {
		t.Fatalf("bad flag value: exit %d\n%s", code, out)
	}
}
