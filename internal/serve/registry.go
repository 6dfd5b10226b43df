package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// modelFilePattern names registry artifacts; the sequence number in the
// name is the model version, so a directory listing is the version
// history.
const modelFilePattern = "model-%08d.sacm"

// modelFileVersion parses a registry artifact name, reporting ok=false
// for foreign files (temp files, READMEs, ...), which the scan skips.
func modelFileVersion(name string) (uint64, bool) {
	var v uint64
	if _, err := fmt.Sscanf(name, modelFilePattern, &v); err != nil || name != fmt.Sprintf(modelFilePattern, v) {
		return 0, false
	}
	return v, true
}

// Registry is the lock-free model store: the current model lives behind
// an atomic pointer that request handlers load wait-free on every
// score, and that Publish / Poll swap in one step. Readers therefore
// always see exactly one immutable model version — a hot swap never
// blocks or tears an in-flight request.
//
// On disk the registry is a directory of versioned model files. Publish
// writes through a temp file and renames, so a concurrent watcher (this
// process's or another's) can never observe a partial artifact.
type Registry struct {
	dir string
	cur atomic.Pointer[Model]

	// Retain bounds how many versions Publish leaves on disk: after a
	// successful publish, artifacts older than the newest Retain are
	// deleted (a long-running refit would otherwise grow the directory
	// without bound). 0 means the default (16); negative keeps
	// everything. Set before the first Publish.
	Retain int

	// mu serializes the writers (Publish, Poll, Watch ticks); readers
	// never take it.
	mu        sync.Mutex
	publishes atomic.Uint64 // models published by this process
	swaps     atomic.Uint64 // pointer swaps (publishes + watcher pickups)

	watchStop chan struct{}
	watchDone chan struct{}
}

// defaultRetain is how many on-disk versions Publish keeps when
// Registry.Retain is 0.
const defaultRetain = 16

// OpenRegistry opens (creating if needed) a model directory and loads
// the highest-versioned valid model in it, if any. Corrupt, partial or
// foreign files are skipped — the registry serves the best model it
// can prove whole, or none (a watcher then picks up the first whole
// model to appear); only an unusable directory is an error.
func OpenRegistry(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.ReadDir(dir); err != nil {
		return nil, err
	}
	r := &Registry{dir: dir}
	r.Poll() //nolint:errcheck // corrupt files at open are recoverable: serve none, let Poll/Watch retry
	return r, nil
}

// Current returns the serving model, or nil before the first publish.
// The load is wait-free; the result is immutable.
func (r *Registry) Current() *Model { return r.cur.Load() }

// Version returns the serving model's version (0 when none).
func (r *Registry) Version() uint64 {
	if m := r.cur.Load(); m != nil {
		return m.Version
	}
	return 0
}

// Publishes returns how many models this process has published.
func (r *Registry) Publishes() uint64 { return r.publishes.Load() }

// Swaps returns how many times the serving pointer has been swapped
// (own publishes plus watcher pickups).
func (r *Registry) Swaps() uint64 { return r.swaps.Load() }

// Publish assigns m the next version number, persists it (temp file +
// rename, via WriteModelFile), atomically swaps it in as the serving
// model, and prunes versions older than Retain. It returns the
// assigned version.
func (r *Registry) Publish(m *Model) (uint64, error) {
	if err := m.validate(); err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	next := r.Version()
	if onDisk, err := r.maxDiskVersion(); err == nil && onDisk > next {
		next = onDisk // never reuse a number another writer already took
	}
	next++
	m.Version = next
	if err := WriteModelFile(filepath.Join(r.dir, fmt.Sprintf(modelFilePattern, next)), m); err != nil {
		return 0, err
	}
	r.cur.Store(m)
	r.publishes.Add(1)
	r.swaps.Add(1)
	r.prune(next)
	return next, nil
}

// prune deletes artifacts older than the newest Retain versions; best
// effort (a reader holding an open fd is unaffected by the unlink, and
// a failed remove is retried at the next publish). Called with mu held.
func (r *Registry) prune(newest uint64) {
	retain := r.Retain
	if retain == 0 {
		retain = defaultRetain
	}
	if retain < 0 || newest <= uint64(retain) {
		return
	}
	cutoff := newest - uint64(retain)
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if v, ok := modelFileVersion(e.Name()); ok && v <= cutoff {
			os.Remove(filepath.Join(r.dir, e.Name())) //nolint:errcheck // retried next publish
		}
	}
}

// maxDiskVersion returns the highest version number present in the
// directory (0 when none), counting even files that fail to load so a
// publisher cannot overwrite them.
func (r *Registry) maxDiskVersion() (uint64, error) {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return 0, err
	}
	var maxV uint64
	for _, e := range entries {
		if v, ok := modelFileVersion(e.Name()); ok && v > maxV {
			maxV = v
		}
	}
	return maxV, nil
}

// Poll rescans the directory and hot-swaps to the highest-versioned
// loadable model newer than the serving one. It reports whether a swap
// happened; load failures of newer files are returned as an error but
// do not prevent swapping to the newest loadable version (serving the
// best provable model beats serving an error).
func (r *Registry) Poll() (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return false, err
	}
	cur := r.Version()
	var newer []uint64
	for _, e := range entries {
		if v, ok := modelFileVersion(e.Name()); ok && v > cur {
			newer = append(newer, v)
		}
	}
	sort.Slice(newer, func(i, j int) bool { return newer[i] > newer[j] })
	var errs []error
	for _, v := range newer {
		m, err := LoadModelFile(filepath.Join(r.dir, fmt.Sprintf(modelFilePattern, v)))
		if err != nil {
			errs = append(errs, fmt.Errorf("version %d: %w", v, err))
			continue
		}
		switch m.Version {
		case v:
		case 0:
			// An unpublished artifact dropped in by a trainer (sasolve -out
			// models/model-NNNNNNNN.sacm): the file name is the version.
			m.Version = v
		default:
			errs = append(errs, fmt.Errorf("version %d: header says version %d", v, m.Version))
			continue
		}
		r.cur.Store(m)
		r.swaps.Add(1)
		return true, errors.Join(errs...)
	}
	return false, errors.Join(errs...)
}

// Watch polls the directory every interval on a background goroutine
// until StopWatch (or a second Watch) is called. Poll errors are
// dropped — the watcher keeps serving the current model and retries
// next tick.
func (r *Registry) Watch(interval time.Duration) {
	r.StopWatch()
	if interval <= 0 {
		interval = 2 * time.Second
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	r.watchStop, r.watchDone = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				r.Poll() //nolint:errcheck // transient; retried next tick
			}
		}
	}()
}

// StopWatch stops the background watcher, if any, and waits for it.
func (r *Registry) StopWatch() {
	if r.watchStop != nil {
		close(r.watchStop)
		<-r.watchDone
		r.watchStop, r.watchDone = nil, nil
	}
}
