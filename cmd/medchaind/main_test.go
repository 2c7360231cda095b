//go:build !race

package main

import (
	"path/filepath"
	"strings"
	"testing"

	"medchain/internal/clitest"
)

// TestGoldenSingleChain: the one-chain demo. Its transactions carry
// time.Now() timestamps, so block hashes and proposer order are masked
// with the durations (and with them the manifest set roots); counts,
// heights and gas are not.
func TestGoldenSingleChain(t *testing.T) {
	clitest.Golden(t, "single", clitest.Build(t), []clitest.Mask{clitest.Digests},
		"-nodes", "3", "-blocks", "2")
}

// TestGoldenSingleChainDurable: the one-chain demo on disk, through the
// kill-and-recover printout (the victim waits on its own height for the
// re-sync), and rerun over the same directory: every node resumes at
// its durable height and the chain goes on from the recovered nonce.
func TestGoldenSingleChainDurable(t *testing.T) {
	bin := clitest.Build(t)
	dir := filepath.Join(t.TempDir(), "data")
	masks := []clitest.Mask{clitest.Literal(dir, "<dir>"), clitest.Digests}
	args := []string{"-nodes", "3", "-blocks", "2", "-data-dir", dir}
	clitest.Golden(t, "single-durable", bin, masks, args...)
	clitest.Golden(t, "single-rerun", bin, masks, args...)
}

// TestGoldenSharded: the sharded demo memory-only, disk-backed through
// the whole-shard power cut and recovery, and rerun over the same
// directory (the chains resume at their durable heights; the datasets
// and the transfer of the first run are found where it left them).
// Heights are masked: what the demo shows is what got where, not in how
// many blocks.
func TestGoldenSharded(t *testing.T) {
	bin := clitest.Build(t)
	masks := []clitest.Mask{clitest.Heights}
	args := []string{"-shards", "3", "-nodes", "3", "-blocks", "2"}
	clitest.Golden(t, "sharded", bin, masks, args...)

	dir := filepath.Join(t.TempDir(), "data")
	masks = append(masks, clitest.Literal(dir, "<dir>"))
	args = append(args, "-data-dir", dir)
	clitest.Golden(t, "sharded-durable", bin, masks, args...)
	clitest.Golden(t, "sharded-rerun", bin, masks, args...)
}

// TestExitCodes: a cluster the chain cannot build exits 1 with the
// chain's error, a flag value that does not parse exits 2.
func TestExitCodes(t *testing.T) {
	bin := clitest.Build(t)
	out, code := clitest.Run(t, bin, "-nodes", "0")
	if code != 1 || !strings.Contains(out, "medchaind: chain: cluster needs at least 1 node") {
		t.Fatalf("empty cluster: exit %d\n%s", code, out)
	}
	out, code = clitest.Run(t, bin, "-shards", "three")
	if code != 2 || strings.Contains(out, "deployment up") {
		t.Fatalf("bad flag value: exit %d\n%s", code, out)
	}
}
