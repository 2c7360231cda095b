package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envInfo is the environment block written into every result.
type envInfo struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	DataFS     string  `json:"data_fs"`
	FsyncUSP50 float64 `json:"fsync_us_p50"` // 50 probed 4 KiB write+fsync on the data dir
	Load1      float64 `json:"load1_at_start"`
	Noisy      bool    `json:"noisy"` // load average above nproc: treat the numbers with suspicion
}

var fsNames = map[int64]string{
	0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
}

func readEnv(dataDir string) envInfo {
	e := envInfo{GitSHA: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), DataFS: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.GitSHA = s.Value
			}
		}
	}
	var st syscall.Statfs_t
	if syscall.Statfs(dataDir, &st) == nil {
		if name, ok := fsNames[int64(st.Type)]; ok {
			e.DataFS = name
		} else {
			e.DataFS = fmt.Sprintf("0x%x", st.Type)
		}
	}
	e.FsyncUSP50 = probeFsync(dataDir)
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			e.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	e.Noisy = e.Load1 > float64(e.NProc)
	return e
}

// probeFsync times 50 appends of 4 KiB each followed by fsync — the
// floor under every block's durability cost on this disk.
func probeFsync(dir string) float64 {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var s samples
	for i := 0; i < 50; i++ {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		s.addSince(start, time.Microsecond)
	}
	return s.pct(50)
}
