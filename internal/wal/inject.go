package wal

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
)

// ErrInjected is the error returned by a tripped Injector failpoint.
var ErrInjected = errors.New("wal: injected fault")

// ErrStaleHandle is returned when a File handle from before a
// simulated crash is used after it — the old process is dead and must
// not touch the reborn filesystem.
var ErrStaleHandle = errors.New("wal: stale handle from crashed process")

// FailMode selects what happens at an armed failpoint's Nth write.
type FailMode int

const (
	// FailErr writes nothing and returns an error.
	FailErr FailMode = iota + 1
	// FailShort writes half the buffer and returns a short-write error.
	FailShort
	// FailTorn writes half the buffer but *reports success* — the lie a
	// real kernel tells when the process dies after write() returns but
	// before the page hits disk. Subsequent writes and syncs fail, so
	// the op can never be acknowledged durable.
	FailTorn
)

// Injector is an in-memory FS with power-failure semantics, built for
// the fault-injection recovery suite:
//
//   - each file tracks durable vs volatile content — Sync promotes the
//     volatile tail to durable;
//   - directory entries (creates, renames, removes) become durable
//     only at SyncDir, matching POSIX;
//   - a failpoint can fail, short-write, or tear the Nth write,
//     counting every write through the FS (WAL appends, segment
//     headers, and checkpoint bytes alike);
//   - Crash simulates kill -9: open handles die, all written bytes
//     survive (the page cache outlives the process);
//   - PowerCut reverts to durable state: un-synced directory ops roll
//     back and un-synced file bytes vanish, except an optional
//     per-file "lucky sector" prefix kept by the caller's choosing.
//
// After Crash or PowerCut the failpoint disarms and the generation
// counter bumps, so recovery code runs against the post-crash state
// while any leaked pre-crash handle errors out.
type Injector struct {
	mu         sync.Mutex
	gen        int
	files      map[string]*memFile // current (volatile) directory view
	durableDir map[string]*memFile // entries whose directory link is durable

	writeCount int
	failAt     int // trip when writeCount reaches this; 0 = disarmed
	mode       FailMode
	tripped    bool
}

type memFile struct {
	data    []byte
	durable int // prefix length covered by a successful Sync
}

// NewInjector returns an empty injected filesystem.
func NewInjector() *Injector {
	return &Injector{
		files:      make(map[string]*memFile),
		durableDir: make(map[string]*memFile),
	}
}

// SetFailpoint arms the failpoint to trigger on the Nth write from
// now (n=1 means the very next write).
func (inj *Injector) SetFailpoint(n int, mode FailMode) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.failAt = inj.writeCount + n
	inj.mode = mode
	inj.tripped = false
}

// Tripped reports whether the armed failpoint has fired.
func (inj *Injector) Tripped() bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.tripped
}

// Crash simulates kill -9: handles are invalidated and the failpoint
// disarms, but every byte the "kernel" accepted survives.
func (inj *Injector) Crash() {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.gen++
	inj.failAt = 0
	inj.tripped = false
}

// PowerCut simulates power loss: the directory reverts to its durable
// view and each file's content to its durable prefix. extra, if
// non-nil, is consulted per file with the length of the doomed
// un-synced tail and may keep a prefix of it (tearing at "sector"
// granularity); after the cut whatever survived on disk is durable.
func (inj *Injector) PowerCut(extra func(name string, unsynced int) int) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.gen++
	inj.failAt = 0
	inj.tripped = false
	inj.files = make(map[string]*memFile, len(inj.durableDir))
	for name, f := range inj.durableDir {
		keep := f.durable
		if extra != nil {
			if unsynced := len(f.data) - f.durable; unsynced > 0 {
				k := extra(name, unsynced)
				if k < 0 {
					k = 0
				}
				if k > unsynced {
					k = unsynced
				}
				keep += k
			}
		}
		f.data = f.data[:keep]
		f.durable = keep
		inj.files[name] = f
	}
	inj.durableDir = make(map[string]*memFile, len(inj.files))
	for name, f := range inj.files {
		inj.durableDir[name] = f
	}
}

// DurableLen returns the durable content length of a file, or -1 if
// its directory entry is not durable — what would survive a power cut
// right now.
func (inj *Injector) DurableLen(name string) int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	f, ok := inj.durableDir[name]
	if !ok {
		return -1
	}
	return f.durable
}

func (inj *Injector) Create(name string) (File, error) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.tripped {
		return nil, fmt.Errorf("create %s: %w", name, ErrInjected)
	}
	f := &memFile{}
	inj.files[name] = f
	return &memHandle{inj: inj, f: f, gen: inj.gen, name: name, writable: true}, nil
}

func (inj *Injector) Open(name string) (File, error) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.tripped {
		return nil, fmt.Errorf("open %s: %w", name, ErrInjected)
	}
	f, ok := inj.files[name]
	if !ok {
		return nil, fmt.Errorf("open %s: file does not exist", name)
	}
	return &memHandle{inj: inj, f: f, gen: inj.gen, name: name}, nil
}

func (inj *Injector) ReadDir() ([]string, error) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.tripped {
		return nil, fmt.Errorf("readdir: %w", ErrInjected)
	}
	names := make([]string, 0, len(inj.files))
	for name := range inj.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func (inj *Injector) Rename(oldname, newname string) error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.tripped {
		return fmt.Errorf("rename %s: %w", oldname, ErrInjected)
	}
	f, ok := inj.files[oldname]
	if !ok {
		return fmt.Errorf("rename %s: file does not exist", oldname)
	}
	delete(inj.files, oldname)
	inj.files[newname] = f
	return nil
}

func (inj *Injector) Remove(name string) error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.tripped {
		return fmt.Errorf("remove %s: %w", name, ErrInjected)
	}
	if _, ok := inj.files[name]; !ok {
		return fmt.Errorf("remove %s: file does not exist", name)
	}
	delete(inj.files, name)
	return nil
}

func (inj *Injector) Truncate(name string, size int64) error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.tripped {
		return fmt.Errorf("truncate %s: %w", name, ErrInjected)
	}
	f, ok := inj.files[name]
	if !ok {
		return fmt.Errorf("truncate %s: file does not exist", name)
	}
	if size < 0 || size > int64(len(f.data)) {
		return fmt.Errorf("truncate %s: size %d out of range", name, size)
	}
	f.data = f.data[:size]
	if f.durable > int(size) {
		f.durable = int(size)
	}
	return nil
}

func (inj *Injector) SyncDir() error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.tripped {
		return fmt.Errorf("syncdir: %w", ErrInjected)
	}
	inj.durableDir = make(map[string]*memFile, len(inj.files))
	for name, f := range inj.files {
		inj.durableDir[name] = f
	}
	return nil
}

type memHandle struct {
	inj      *Injector
	f        *memFile
	gen      int
	name     string
	pos      int
	writable bool
	closed   bool
}

func (h *memHandle) check() error {
	if h.closed {
		return fmt.Errorf("%s: handle closed", h.name)
	}
	if h.gen != h.inj.gen {
		return fmt.Errorf("%s: %w", h.name, ErrStaleHandle)
	}
	return nil
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.inj.mu.Lock()
	defer h.inj.mu.Unlock()
	if err := h.check(); err != nil {
		return 0, err
	}
	if h.pos >= len(h.f.data) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[h.pos:])
	h.pos += n
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.inj.mu.Lock()
	defer h.inj.mu.Unlock()
	if err := h.check(); err != nil {
		return 0, err
	}
	if !h.writable {
		return 0, fmt.Errorf("%s: not open for writing", h.name)
	}
	if h.inj.tripped {
		return 0, fmt.Errorf("write %s: %w", h.name, ErrInjected)
	}
	h.inj.writeCount++
	if h.inj.failAt > 0 && h.inj.writeCount >= h.inj.failAt {
		h.inj.tripped = true
		switch h.inj.mode {
		case FailShort:
			k := len(p) / 2
			h.f.data = append(h.f.data, p[:k]...)
			return k, fmt.Errorf("write %s: %w (short write, %d of %d bytes)", h.name, ErrInjected, k, len(p))
		case FailTorn:
			h.f.data = append(h.f.data, p[:len(p)/2]...)
			return len(p), nil // the kernel's lie: accepted, never landing
		default:
			return 0, fmt.Errorf("write %s: %w", h.name, ErrInjected)
		}
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.inj.mu.Lock()
	defer h.inj.mu.Unlock()
	if err := h.check(); err != nil {
		return err
	}
	if h.inj.tripped {
		return fmt.Errorf("sync %s: %w", h.name, ErrInjected)
	}
	h.f.durable = len(h.f.data)
	return nil
}

func (h *memHandle) Close() error {
	h.inj.mu.Lock()
	defer h.inj.mu.Unlock()
	h.closed = true
	return nil
}
