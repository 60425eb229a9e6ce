package wal

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
)

// ErrKilled is returned by every FaultFS operation after the injected crash
// point: as far as the code under test can tell, the process died.
var ErrKilled = errors.New("wal: faultfs killed")

// FaultFS wraps an FS with the failure modes durable storage actually
// exhibits, for driving recovery tests:
//
//   - kill-at-offset: after a byte budget of writes (optionally restricted to
//     files whose base name contains a pattern), the write that crosses the
//     budget is torn — only the bytes within budget reach the inner FS — and
//     every later operation fails with ErrKilled, exactly like a process
//     killed mid-write;
//   - fsync errors: Sync fails without killing the process;
//   - short reads: Read returns at most ShortRead bytes per call, flushing
//     out callers that assume one Read fills the buffer.
//
// Bytes written before the kill persist in the inner FS, so a test "restarts"
// by reopening the same directory with a healthy FS and asserting recovery.
// All methods are safe for concurrent use.
type FaultFS struct {
	inner FS

	mu        sync.Mutex
	budget    int64  // bytes writable before the kill; <0 = unlimited
	pattern   string // only writes to matching base names consume the budget
	killed    bool
	failSync  bool
	shortRead int
}

var _ FS = (*FaultFS)(nil)

// NewFaultFS wraps inner (OSFS when nil) with no faults armed.
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OSFS{}
	}
	return &FaultFS{inner: inner, budget: -1}
}

// KillAfter arms the crash: after n more bytes are written to files whose
// base name contains pattern ("" = every file), the crossing write is torn
// and the FS dies. n = 0 kills on the next matching write.
func (f *FaultFS) KillAfter(n int64, pattern string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.budget = n
	f.pattern = pattern
}

// Kill makes every subsequent operation fail immediately (a clean poweroff
// with nothing torn).
func (f *FaultFS) Kill() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.killed = true
}

// FailSyncs makes Sync (and SyncDir) fail without killing the process.
func (f *FaultFS) FailSyncs(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSync = on
}

// LimitReads caps each Read call at n bytes (0 restores full reads).
func (f *FaultFS) LimitReads(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shortRead = n
}

// Killed reports whether the injected crash has fired.
func (f *FaultFS) Killed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.killed
}

// admitWrite decides how much of an n-byte write to name proceeds; it tears
// the crossing write and kills the FS when the budget runs out.
func (f *FaultFS) admitWrite(name string, n int) (allowed int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.killed {
		return 0, ErrKilled
	}
	if f.budget < 0 || (f.pattern != "" && !strings.Contains(filepath.Base(name), f.pattern)) {
		return n, nil
	}
	if int64(n) <= f.budget {
		f.budget -= int64(n)
		return n, nil
	}
	allowed = int(f.budget)
	f.budget = 0
	f.killed = true
	return allowed, ErrKilled
}

func (f *FaultFS) check() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.killed {
		return ErrKilled
	}
	return nil
}

func (f *FaultFS) checkSync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.killed {
		return ErrKilled
	}
	if f.failSync {
		return errors.New("wal: faultfs injected fsync error")
	}
	return nil
}

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, f: inner}, nil
}

// Open implements FS.
func (f *FaultFS) Open(name string) (File, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, f: inner}, nil
}

// ReadDir implements FS.
func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(dir)
}

// Rename implements FS.
func (f *FaultFS) Rename(oldname, newname string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.inner.Rename(oldname, newname)
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// Truncate implements FS.
func (f *FaultFS) Truncate(name string, size int64) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.inner.Truncate(name, size)
}

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(dir string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.inner.MkdirAll(dir)
}

// SyncDir implements FS.
func (f *FaultFS) SyncDir(dir string) error {
	if err := f.checkSync(); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// faultFile threads a file's reads, writes and syncs through the fault state.
type faultFile struct {
	fs   *FaultFS
	name string
	f    File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	allowed, err := ff.fs.admitWrite(ff.name, len(p))
	if allowed > 0 {
		n, werr := ff.f.Write(p[:allowed])
		if werr != nil {
			return n, werr
		}
		if err != nil {
			// Torn write: the prefix reached the disk, then the process died.
			// Make the surviving bytes visible to the post-restart reader.
			ff.f.Sync()
			return n, err
		}
		return n, nil
	}
	return 0, err
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if err := ff.fs.check(); err != nil {
		return 0, err
	}
	ff.fs.mu.Lock()
	limit := ff.fs.shortRead
	ff.fs.mu.Unlock()
	if limit > 0 && len(p) > limit {
		p = p[:limit]
	}
	return ff.f.Read(p)
}

func (ff *faultFile) Sync() error {
	if err := ff.fs.checkSync(); err != nil {
		return err
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error {
	// Close always reaches the inner file so descriptors are not leaked,
	// even after the kill.
	return ff.f.Close()
}
