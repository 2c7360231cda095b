package store

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
)

// Injected fault errors.
var (
	// ErrInjectedFault marks any failure produced by FaultFS rather
	// than the underlying filesystem.
	ErrInjectedFault = errors.New("store: injected fault")
	// ErrDiskCrashed is returned for every mutating operation after a
	// crash-at-byte-N threshold fired, until Heal.
	ErrDiskCrashed = fmt.Errorf("%w: disk crashed", ErrInjectedFault)
)

// FaultConfig tunes the seeded fault schedule of a FaultFS.
type FaultConfig struct {
	// Seed drives every random fault decision (0 = seed 1).
	Seed int64
	// TornWriteProb is the per-write probability that only a random
	// prefix of the buffer reaches the file and the write errors.
	TornWriteProb float64
	// ShortWriteProb is the per-write probability that the write
	// persists a prefix and reports it via io.ErrShortWrite.
	ShortWriteProb float64
	// SyncFailProb is the per-fsync probability of failure (the data
	// stays volatile).
	SyncFailProb float64
	// CrashAfterBytes, when > 0, crashes the disk once that many total
	// bytes have been written across all files: the write that crosses
	// the threshold persists only up to it (a torn frame), and every
	// mutating operation afterwards fails with ErrDiskCrashed until
	// Heal. This is how the simulation kills a node mid-block-write.
	CrashAfterBytes int64
}

// FaultFS wraps any FS with seeded fault injection and byte-accurate
// write metering. The meter (BytesWritten, Syncs) also makes FaultFS —
// with a zero FaultConfig — the write and fsync probe behind bench/'s
// `store.*` layers and TestWALGroupCommitDurabilityWindow.
type FaultFS struct {
	base FS

	mu      sync.Mutex
	rng     *rand.Rand
	cfg     FaultConfig
	written int64 // total bytes asked to be written (the crash clock)
	crashed bool

	bytesWritten int64 // bytes that actually reached the base FS
	syncs        int64
	log          []string
}

// NewFaultFS wraps base with the given fault schedule.
func NewFaultFS(base FS, cfg FaultConfig) *FaultFS {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &FaultFS{base: base, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Heal clears a crashed state and disarms the crash threshold — the
// model for replacing the disk controller when the process restarts.
// Probabilistic faults (torn writes, sync failures) stay armed.
func (f *FaultFS) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed = false
	f.cfg.CrashAfterBytes = 0
}

// ArmCrashAfter schedules a disk crash once delta more bytes are
// written from now.
func (f *FaultFS) ArmCrashAfter(delta int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg.CrashAfterBytes = f.written + delta
}

// Crashed reports whether the crash threshold has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// BytesWritten returns the bytes that actually reached the base FS.
func (f *FaultFS) BytesWritten() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bytesWritten
}

// Syncs returns the number of successful fsyncs.
func (f *FaultFS) Syncs() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncs
}

// Log returns the injected-fault log (reproducible per seed).
func (f *FaultFS) Log() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.log...)
}

func (f *FaultFS) logf(format string, args ...any) {
	f.log = append(f.log, fmt.Sprintf(format, args...))
}

// OpenFile opens a file on the base FS; reads always pass through,
// mutations are subject to the fault schedule.
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	base, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, base: base}, nil
}

// Rename passes through unless the disk has crashed.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return ErrDiskCrashed
	}
	return f.base.Rename(oldpath, newpath)
}

// Remove passes through unless the disk has crashed.
func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return ErrDiskCrashed
	}
	return f.base.Remove(name)
}

// ReadDir passes through (reads survive a crashed write path).
func (f *FaultFS) ReadDir(dir string) ([]string, error) { return f.base.ReadDir(dir) }

// MkdirAll passes through unless the disk has crashed.
func (f *FaultFS) MkdirAll(dir string, perm os.FileMode) error {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return ErrDiskCrashed
	}
	return f.base.MkdirAll(dir, perm)
}

type faultFile struct {
	fs   *FaultFS
	name string
	base File
}

// decideWrite picks the fate of a write of n bytes: how many bytes to
// persist and which error (nil = clean). Caller holds fs.mu.
func (f *faultFile) decideWrite(n int) (persist int, err error) {
	fs := f.fs
	if fs.crashed {
		return 0, ErrDiskCrashed
	}
	if fs.cfg.CrashAfterBytes > 0 && fs.written+int64(n) > fs.cfg.CrashAfterBytes {
		persist = int(fs.cfg.CrashAfterBytes - fs.written)
		if persist < 0 {
			persist = 0
		}
		fs.crashed = true
		fs.logf("crash-at-byte %d: %s write torn at %d/%d", fs.cfg.CrashAfterBytes, f.name, persist, n)
		return persist, ErrDiskCrashed
	}
	if fs.cfg.TornWriteProb > 0 && fs.rng.Float64() < fs.cfg.TornWriteProb {
		persist = fs.rng.Intn(n + 1)
		fs.logf("torn write: %s persisted %d/%d", f.name, persist, n)
		return persist, fmt.Errorf("%w: torn write", ErrInjectedFault)
	}
	if fs.cfg.ShortWriteProb > 0 && fs.rng.Float64() < fs.cfg.ShortWriteProb {
		persist = fs.rng.Intn(n + 1)
		fs.logf("short write: %s persisted %d/%d", f.name, persist, n)
		return persist, io.ErrShortWrite
	}
	return n, nil
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	persist, ferr := f.decideWrite(len(p))
	f.fs.written += int64(persist)
	f.fs.mu.Unlock()

	n := 0
	var err error
	if persist > 0 {
		n, err = f.base.WriteAt(p[:persist], off)
	}
	f.fs.mu.Lock()
	f.fs.bytesWritten += int64(n)
	f.fs.mu.Unlock()
	if ferr != nil {
		return n, ferr
	}
	return n, err
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) { return f.base.ReadAt(p, off) }

func (f *faultFile) Sync() error {
	fs := f.fs
	fs.mu.Lock()
	if fs.crashed {
		fs.mu.Unlock()
		return ErrDiskCrashed
	}
	if fs.cfg.SyncFailProb > 0 && fs.rng.Float64() < fs.cfg.SyncFailProb {
		fs.logf("sync failed: %s", f.name)
		fs.mu.Unlock()
		return fmt.Errorf("%w: fsync failed", ErrInjectedFault)
	}
	fs.mu.Unlock()
	if err := f.base.Sync(); err != nil {
		return err
	}
	fs.mu.Lock()
	fs.syncs++
	fs.mu.Unlock()
	return nil
}

func (f *faultFile) Truncate(size int64) error {
	fs := f.fs
	fs.mu.Lock()
	crashed := fs.crashed
	fs.mu.Unlock()
	if crashed {
		return ErrDiskCrashed
	}
	return f.base.Truncate(size)
}

func (f *faultFile) Size() (int64, error) { return f.base.Size() }
func (f *faultFile) Close() error         { return f.base.Close() }
