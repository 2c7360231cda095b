//go:build !race

package main

import (
	"testing"

	"medchain/internal/clitest"
)

// TestGolden holds the example's output to the golden recorded at
// 56c8a1c.
func TestGolden(t *testing.T) {
	clitest.Golden(t, "clinicaltrial", clitest.Build(t), nil)
}
