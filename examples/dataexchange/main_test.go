//go:build !race

package main

import (
	"testing"

	"medchain/internal/clitest"
)

// TestGolden holds the example's output to the golden recorded at
// 56c8a1c; the audit head covers envelopes sealed under random nonces,
// so short digests are masked.
func TestGolden(t *testing.T) {
	clitest.Golden(t, "dataexchange", clitest.Build(t), []clitest.Mask{clitest.Digests})
}
