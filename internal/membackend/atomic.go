package membackend

import (
	"fmt"

	"atmostonce/internal/shmem"
)

// AtomicBackend adapts the in-process shmem.AtomicMem to the Backend
// lifecycle. Sync and Close are no-ops: the registers live on the heap
// and die with the process.
type AtomicBackend struct {
	*shmem.AtomicMem
}

var _ Backend = AtomicBackend{}

// NewAtomic returns a volatile in-process backend with size zeroed
// cells.
func NewAtomic(size int) AtomicBackend {
	return AtomicBackend{AtomicMem: shmem.NewAtomic(size)}
}

// WriteAcked implements Backend. In-process atomic stores are acked the
// moment they return, so the batch is a plain loop.
func (b AtomicBackend) WriteAcked(addr int, vals []int64) error {
	for i, v := range vals {
		b.AtomicMem.Write(addr+i, v)
	}
	return nil
}

// ReadRange implements Backend as a loop of atomic loads.
func (b AtomicBackend) ReadRange(addr int, dst []int64) error {
	for i := range dst {
		dst[i] = b.AtomicMem.Read(addr + i)
	}
	return nil
}

// Reopened implements Backend: heap registers never hold earlier state.
func (AtomicBackend) Reopened() bool { return false }

// Sync implements Backend; there is nothing to flush.
func (AtomicBackend) Sync() error { return nil }

// Close implements Backend; there is nothing to release.
func (AtomicBackend) Close() error { return nil }

func init() {
	Register("atomic", func(arg string, size int) (Backend, error) {
		if arg != "" {
			return nil, fmt.Errorf("membackend: atomic backend takes no argument, got %q", arg)
		}
		return NewAtomic(size), nil
	})
}
