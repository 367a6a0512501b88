//go:build linux

package membackend

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// The mmap register file layout (all little-endian):
//
//	offset  size  field
//	0       8     magic ("AMOREG1\n")
//	8       4     format version (currently 1)
//	12      4     cell size in bytes (8)
//	16      8     cell count
//	24      40    reserved (zero)
//	64      8·n   cells, each an int64 register
//
// The 64-byte header keeps the cell array 8-byte aligned (the mapping
// itself is page aligned), so each cell is accessed with real
// sync/atomic loads and stores on the mapped memory.
const (
	mmapMagic    uint64 = 0x0a314745524f4d41 // "AMOREG1\n"
	mmapVersion  uint32 = 1
	mmapCellSize uint32 = 8
	mmapHeader          = 64
)

// MmapMem is a durable register file: size int64 cells memory-mapped
// from a file with a versioned header. Reads and writes are per-cell
// atomic (sync/atomic on the mapped memory), so the backend is safe for
// concurrent use within one process; see DESIGN.md §7 for the
// multi-process caveats. A fresh file is created zeroed; reopening an
// existing file validates the header and exposes the persisted cells,
// with Reopened reporting which case occurred.
type MmapMem struct {
	path     string
	f        *os.File
	data     []byte
	cells    []atomic.Int64
	reopened bool

	// mu serializes Sync and Close against each other, so a Sync racing
	// a Close never msyncs an unmapped region. Read/Write stay lock-free;
	// cell access after Close is undefined by contract.
	mu     sync.Mutex
	closed bool
}

var _ Backend = (*MmapMem)(nil)

// OpenMmap maps the register file at path with size cells, creating and
// zero-initializing it if it does not exist (or exists empty). An
// existing non-empty file must carry a valid header whose cell count
// matches size.
func OpenMmap(path string, size int) (*MmapMem, error) {
	if size <= 0 {
		return nil, fmt.Errorf("membackend: mmap %s: need a positive size, got %d", path, size)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("membackend: mmap: %w", err)
	}
	m, err := initMmap(f, path, size)
	if err != nil {
		f.Close()
		return nil, err
	}
	return m, nil
}

func initMmap(f *os.File, path string, size int) (*MmapMem, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("membackend: mmap %s: %w", path, err)
	}
	want := int64(mmapHeader) + int64(size)*int64(mmapCellSize)
	fresh := st.Size() == 0
	if fresh {
		if err := f.Truncate(want); err != nil {
			return nil, fmt.Errorf("membackend: mmap %s: %w", path, err)
		}
	} else if st.Size() != want {
		return nil, fmt.Errorf("membackend: mmap %s: file holds %d bytes, want %d for %d cells",
			path, st.Size(), want, size)
	}

	data, err := syscall.Mmap(int(f.Fd()), 0, int(want), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("membackend: mmap %s: %w", path, err)
	}
	m := &MmapMem{
		path:  path,
		f:     f,
		data:  data,
		cells: unsafe.Slice((*atomic.Int64)(unsafe.Pointer(&data[mmapHeader])), size),
	}
	if err := m.checkHeader(size, fresh); err != nil {
		syscall.Munmap(data)
		return nil, err
	}
	return m, nil
}

// checkHeader validates (or, for a fresh file, writes) the header. A
// zero magic is treated as fresh even on a non-empty file: it means a
// previous creator was killed between Truncate and the header write,
// and the cells are still all zero.
func (m *MmapMem) checkHeader(size int, fresh bool) error {
	hdr := m.data[:mmapHeader]
	magic := binary.LittleEndian.Uint64(hdr[0:])
	if magic == 0 {
		binary.LittleEndian.PutUint64(hdr[0:], mmapMagic)
		binary.LittleEndian.PutUint32(hdr[8:], mmapVersion)
		binary.LittleEndian.PutUint32(hdr[12:], mmapCellSize)
		binary.LittleEndian.PutUint64(hdr[16:], uint64(size))
		return m.Sync()
	}
	if magic != mmapMagic {
		return fmt.Errorf("membackend: mmap %s: not a register file (magic %#x)", m.path, magic)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != mmapVersion {
		return fmt.Errorf("membackend: mmap %s: format version %d, want %d", m.path, v, mmapVersion)
	}
	if cs := binary.LittleEndian.Uint32(hdr[12:]); cs != mmapCellSize {
		return fmt.Errorf("membackend: mmap %s: cell size %d, want %d", m.path, cs, mmapCellSize)
	}
	if n := binary.LittleEndian.Uint64(hdr[16:]); n != uint64(size) {
		return fmt.Errorf("membackend: mmap %s: file holds %d cells, want %d", m.path, n, size)
	}
	m.reopened = !fresh
	return nil
}

// Read implements shmem.Mem.
func (m *MmapMem) Read(addr int) int64 { return m.cells[addr].Load() }

// Write implements shmem.Mem.
func (m *MmapMem) Write(addr int, v int64) { m.cells[addr].Store(v) }

// syncCells msyncs the page range covering the n cells starting at
// addr, making their current values durable against host crash, not
// just process death. The mapping starts page-aligned, so rounding the
// byte offsets to page boundaries stays inside it. Like Read and Write
// it must not race Close (undefined by contract); unlike Sync it takes
// no lock, because it is the acked-write hot path.
func (m *MmapMem) syncCells(addr, n int) error {
	page := syscall.Getpagesize()
	lo := (mmapHeader + addr*int(mmapCellSize)) &^ (page - 1)
	hi := mmapHeader + (addr+n)*int(mmapCellSize)
	if rem := hi % page; rem != 0 {
		hi += page - rem
	}
	if hi > len(m.data) {
		hi = len(m.data)
	}
	if err := msync(m.data[lo:hi]); err != nil {
		return fmt.Errorf("membackend: msync %s cells [%d,%d): %w", m.path, addr, addr+n, err)
	}
	mbSyncs.Inc()
	return nil
}

// WriteAcked implements Backend: len(vals) stores, then ONE msync
// covering the touched page range. A plain Write already survives
// process death (the pages belong to the kernel); the acked write is the
// genuinely synchronous one record-then-do needs to also survive a host
// crash. The msync is the expensive part, and a batch pays it once — the
// group-commit amortization. A host crash mid-batch keeps whichever of
// the touched pages the kernel had written back: any subset of the
// cells, as the contract allows.
func (m *MmapMem) WriteAcked(addr int, vals []int64) error {
	if len(vals) == 0 {
		return nil
	}
	for i, v := range vals {
		m.cells[addr+i].Store(v)
	}
	return m.syncCells(addr, len(vals))
}

// ReadRange implements Backend as a loop of atomic loads on the mapping.
func (m *MmapMem) ReadRange(addr int, dst []int64) error {
	for i := range dst {
		dst[i] = m.cells[addr+i].Load()
	}
	return nil
}

// Size implements shmem.Mem.
func (m *MmapMem) Size() int { return len(m.cells) }

// Path returns the backing file's path.
func (m *MmapMem) Path() string { return m.path }

// Reopened reports whether OpenMmap found existing register state.
func (m *MmapMem) Reopened() bool { return m.reopened }

// msync is syscall.Msync, which the stdlib syscall package does not
// export on linux.
func msync(b []byte) error {
	_, _, errno := syscall.Syscall(syscall.SYS_MSYNC,
		uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(syscall.MS_SYNC))
	if errno != 0 {
		return errno
	}
	return nil
}

// Sync flushes the mapping to the backing file (msync). It is safe to
// call concurrently with reads, writes and Close; concurrent writes may
// or may not be included in the flush, and a Sync racing Close is a
// no-op.
func (m *MmapMem) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	if err := msync(m.data); err != nil {
		return fmt.Errorf("membackend: msync %s: %w", m.path, err)
	}
	mbSyncs.Inc()
	return nil
}

// Close syncs, unmaps and closes the file. Close is idempotent; cell
// access after Close faults.
func (m *MmapMem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	err := msync(m.data)
	if e := syscall.Munmap(m.data); err == nil {
		err = e
	}
	if e := m.f.Close(); err == nil {
		err = e
	}
	m.data, m.cells = nil, nil
	if err != nil {
		return fmt.Errorf("membackend: close %s: %w", m.path, err)
	}
	return nil
}

func init() {
	Register("mmap", func(arg string, size int) (Backend, error) {
		if arg == "" {
			return nil, fmt.Errorf("membackend: mmap backend needs a file path, e.g. %q", "mmap:/var/lib/amo/shard.reg")
		}
		return OpenMmap(arg, size)
	})
}
