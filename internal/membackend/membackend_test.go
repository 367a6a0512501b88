package membackend

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"atmostonce/internal/memtest"
	"atmostonce/internal/shmem"
)

// mmapFactory builds a memtest.Factory over one register file path so
// the Reopen subtest maps the same storage twice.
func mmapFactory(t *testing.T, wrap string) memtest.Factory {
	dir := t.TempDir()
	var path string
	spec := func() string {
		s := "mmap:" + path
		if wrap != "" {
			s = wrap + ":" + s
		}
		return s
	}
	open := func(t *testing.T, size int) shmem.Mem {
		b, err := Open(spec(), size)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	}
	return memtest.Factory{
		New: func(t *testing.T, size int) shmem.Mem {
			// Subtests get distinct files; "/" in subtest names would
			// otherwise read as directories.
			path = filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_")+".reg")
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			return open(t, size)
		},
		Reopen:  open,
		Release: func(t *testing.T, m shmem.Mem) { m.(Backend).Close() },
	}
}

func TestAtomicBackendSuite(t *testing.T) {
	memtest.RunMemSuite(t, memtest.Factory{
		New: func(t *testing.T, size int) shmem.Mem {
			b, err := Open("atomic", size)
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
	})
}

func TestCountingAtomicSuite(t *testing.T) {
	memtest.RunMemSuite(t, memtest.Factory{
		New: func(t *testing.T, size int) shmem.Mem {
			b, err := Open("counting:atomic", size)
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
	})
}

func TestMmapSuite(t *testing.T) {
	requireMmap(t)
	memtest.RunMemSuite(t, mmapFactory(t, ""))
}

func TestCountingMmapSuite(t *testing.T) {
	requireMmap(t)
	memtest.RunMemSuite(t, mmapFactory(t, "counting"))
}

func requireMmap(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("mmap backend requires linux")
	}
}

func TestCountingCounts(t *testing.T) {
	b, err := Open("counting:atomic", 4)
	if err != nil {
		t.Fatal(err)
	}
	c := AsCounting(b)
	c.Write(0, 7)
	c.Write(1, 8)
	if c.Read(0) != 7 {
		t.Fatal("read through wrapper lost the write")
	}
	if c.Reads() != 1 || c.Writes() != 2 || c.Accesses() != 3 {
		t.Fatalf("counters reads=%d writes=%d, want 1/2", c.Reads(), c.Writes())
	}
	if c.Reopened() {
		t.Fatal("volatile inner backend reported Reopened")
	}
}

// TestParseSpec is the spec table test: well-formed specs split into
// kind/argument, malformed ones are rejected with errors that name the
// problem, and only "" and "atomic" — no wrapper, no remote kind, nothing
// Open would reject — are Volatile.
func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec       string
		kind, arg  string
		errPattern string // substring of the expected error; "" = ok
		volatile   bool
	}{
		{"", "atomic", "", "", true},
		{"atomic", "atomic", "", "", true},
		{"counting:atomic", "counting", "atomic", "", false},
		{"mmap:/var/lib/amo/regs", "mmap", "/var/lib/amo/regs", "", false},
		{"counting:mmap:/x", "counting", "mmap:/x", "", false},
		{"net:127.0.0.1:7878/jobs", "net", "127.0.0.1:7878/jobs", "", false},
		{"atomic:x", "atomic", "x", "", false}, // Open refuses the argument
		{"atomc", "atomc", "", "", false},      // Open refuses the kind
		{"atomic:", "", "", "dangling ':'", false},
		{"mmap:", "", "", "dangling ':'", false},
		{"counting:", "", "", "dangling ':'", false},
		{":mmap", "", "", "empty backend kind", false},
		{":", "", "", "empty backend kind", false},
		{" atomic", "", "", "whitespace", false},
		{"atomic ", "", "", "whitespace", false},
		{"mmap:/x ", "", "", "whitespace", false},
		{"\tatomic", "", "", "whitespace", false},
	}
	for _, c := range cases {
		if got := Volatile(c.spec); got != c.volatile {
			t.Errorf("Volatile(%q) = %v, want %v", c.spec, got, c.volatile)
		}
		kind, arg, err := parseSpec(c.spec)
		if c.errPattern == "" {
			if err != nil {
				t.Errorf("parseSpec(%q): unexpected error %v", c.spec, err)
			} else if kind != c.kind || arg != c.arg {
				t.Errorf("parseSpec(%q) = %q, %q, want %q, %q", c.spec, kind, arg, c.kind, c.arg)
			}
			continue
		}
		if err == nil {
			t.Errorf("parseSpec(%q) accepted, want error containing %q", c.spec, c.errPattern)
		} else if !strings.Contains(err.Error(), c.errPattern) {
			t.Errorf("parseSpec(%q) error %q does not mention %q", c.spec, err, c.errPattern)
		}
	}
}

// TestOpenMalformedSpecs checks the same hardening end to end through
// Open, including the near-miss suggestion for misspelled kinds.
func TestOpenMalformedSpecs(t *testing.T) {
	for spec, want := range map[string]string{
		"atomic:":        "dangling ':'",
		"mmap:":          "dangling ':'",
		"counting:atomc": `did you mean "atomic"`,
		"atomc":          `did you mean "atomic"`,
		"mmmap:/x":       `did you mean "mmap"`,
		"couting:atomic": `did you mean "counting"`,
		"zzz":            "unknown backend",
		" atomic":        "whitespace",
	} {
		if _, err := Open(spec, 8); err == nil {
			t.Errorf("Open(%q) accepted, want error containing %q", spec, want)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("Open(%q) error %q does not mention %q", spec, err, want)
		}
	}
	// A kind nothing is close to gets no suggestion, just the inventory.
	if _, err := Open("postgres:dsn", 8); err == nil || strings.Contains(err.Error(), "did you mean") {
		t.Errorf("far-off kind got a suggestion: %v", err)
	}
}

// recordingBackend logs the order of operations it receives, so wrapper
// passthrough ordering is observable.
type recordingBackend struct {
	AtomicBackend
	ops []string
}

func (r *recordingBackend) Write(addr int, v int64) {
	r.ops = append(r.ops, fmt.Sprintf("write %d=%d", addr, v))
	r.AtomicBackend.Write(addr, v)
}

func (r *recordingBackend) WriteAcked(addr int, vals []int64) error {
	for i, v := range vals {
		r.ops = append(r.ops, fmt.Sprintf("write %d=%d", addr+i, v))
	}
	return r.AtomicBackend.WriteAcked(addr, vals)
}

func (r *recordingBackend) Sync() error {
	r.ops = append(r.ops, "sync")
	return nil
}

// TestCountingSyncPassthrough pins the wrapper contract satellite: Sync
// calls pass through to the inner backend in program order relative to
// writes (a Sync issued after a write must reach the store after it),
// and the wrapper counts them.
func TestCountingSyncPassthrough(t *testing.T) {
	inner := &recordingBackend{AtomicBackend: NewAtomic(8)}
	c := NewCounting(inner)
	c.Write(0, 1)
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAcked(1, []int64{2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	want := []string{"write 0=1", "sync", "write 1=2", "sync"}
	if len(inner.ops) != len(want) {
		t.Fatalf("inner saw %v, want %v", inner.ops, want)
	}
	for i := range want {
		if inner.ops[i] != want[i] {
			t.Fatalf("inner op %d = %q, want %q (full: %v)", i, inner.ops[i], want[i], inner.ops)
		}
	}
	if c.Syncs() != 2 {
		t.Fatalf("Syncs() = %d, want 2", c.Syncs())
	}
	if c.Writes() != 2 {
		t.Fatalf("Writes() = %d, want 2 (WriteAcked must count)", c.Writes())
	}
}

// TestCountingDurableSync drives Sync counting through a real durable
// inner backend (counting:mmap) and checks the flushed state survives a
// reopen — i.e. the wrapper forwarded the msync rather than absorbing
// it.
func TestCountingDurableSync(t *testing.T) {
	requireMmap(t)
	path := filepath.Join(t.TempDir(), "regs")
	b, err := Open("counting:mmap:"+path, 16)
	if err != nil {
		t.Fatal(err)
	}
	c := AsCounting(b)
	c.Write(3, 77)
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if c.Syncs() != 1 {
		t.Fatalf("Syncs() = %d, want 1", c.Syncs())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open("counting:mmap:"+path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !AsCounting(r).Reopened() {
		t.Fatal("reopened durable file not reported")
	}
	if got := r.Read(3); got != 77 {
		t.Fatalf("cell 3 reads %d after reopen, want 77", got)
	}
}

// TestCountingCapabilities pins the counting weights of the two batch
// methods — WriteAcked(k cells) = k writes, ReadRange(k) = k reads —
// over a volatile and a durable inner backend.
func TestCountingCapabilities(t *testing.T) {
	specs := []string{"counting:atomic"}
	if runtime.GOOS == "linux" {
		specs = append(specs, "counting:mmap:"+filepath.Join(t.TempDir(), "regs"))
	}
	for _, spec := range specs {
		b, err := Open(spec, 16)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		c := AsCounting(b)
		if err := c.WriteAcked(4, []int64{9, 9, 9, 9}); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteAcked(9, []int64{5}); err != nil {
			t.Fatal(err)
		}
		dst := make([]int64, 8)
		if err := c.ReadRange(3, dst); err != nil {
			t.Fatal(err)
		}
		want := []int64{0, 9, 9, 9, 9, 0, 5, 0}
		for i, v := range want {
			if dst[i] != v {
				t.Fatalf("%s: ReadRange[%d] = %d, want %d", spec, i, dst[i], v)
			}
		}
		if got := c.Read(4); got != 9 {
			t.Fatalf("%s: cell 4 = %d, want 9", spec, got)
		}
		// Weights: WriteAcked = 4+1 writes, ReadRange = 8 reads, Read = 1.
		if c.Writes() != 5 || c.Reads() != 9 {
			t.Fatalf("%s: counters reads=%d writes=%d, want 9/5", spec, c.Reads(), c.Writes())
		}
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open("nosuch", 8); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("unknown kind: got %v", err)
	}
	if _, err := Open("atomic", 0); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := Open("atomic:junk", 8); err == nil {
		t.Fatal("atomic with argument accepted")
	}
	if _, err := Open("counting", 8); err == nil {
		t.Fatal("counting without inner spec accepted")
	}
	if _, err := Open("mmap", 8); err == nil {
		t.Fatal("mmap without path accepted")
	}
	// Empty spec defaults to atomic.
	b, err := Open("", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.(AtomicBackend); !ok {
		t.Fatalf("empty spec opened %T, want AtomicBackend", b)
	}
}

func TestShardSpec(t *testing.T) {
	cases := [][3]string{
		{"atomic", "0", "atomic"},
		{"mmap:/tmp/x", "2", "mmap:/tmp/x.shard2"},
		{"counting:mmap:/tmp/x", "1", "counting:mmap:/tmp/x.shard1"},
		{"counting:atomic", "3", "counting:atomic"},
		// The "net" kind's suffix grammar is owned by internal/netmem
		// (RegisterSuffixer) and tested there; unregistered kinds pass
		// through untouched.
		{"net:127.0.0.1:7878/jobs", "2", "net:127.0.0.1:7878/jobs"},
	}
	for _, c := range cases {
		shard := int(c[1][0] - '0')
		if got := ShardSpec(c[0], shard); got != c[2] {
			t.Errorf("ShardSpec(%q, %d) = %q, want %q", c[0], shard, got, c[2])
		}
	}
	// WithSuffix only touches path-bearing terminals.
	if got := WithSuffix("counting:atomic", ".shape1"); got != "counting:atomic" {
		t.Errorf("WithSuffix(counting:atomic) = %q, want unchanged", got)
	}
	if got := WithSuffix("counting:mmap:/x", ".shape1"); got != "counting:mmap:/x.shape1" {
		t.Errorf("WithSuffix(counting:mmap:/x) = %q", got)
	}
}

func TestKinds(t *testing.T) {
	kinds := Kinds()
	for _, want := range []string{"atomic", "counting", "mmap"} {
		found := false
		for _, k := range kinds {
			if k == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("registry missing %q (have %v)", want, kinds)
		}
	}
}

func TestMmapHeaderValidation(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "regs")

	b, err := OpenMmap(path, 32)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(5, 99)
	if b.Reopened() {
		t.Fatal("fresh file reported Reopened")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal("Close is not idempotent:", err)
	}

	// Reopen with the right size sees the data and reports Reopened.
	r, err := OpenMmap(path, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Reopened() {
		t.Fatal("existing file not reported as reopened")
	}
	if got := r.Read(5); got != 99 {
		t.Fatalf("persisted cell reads %d, want 99", got)
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	r.Close()

	// Size mismatch is rejected, both ways.
	if _, err := OpenMmap(path, 64); err == nil {
		t.Fatal("cell-count mismatch accepted")
	}

	// A non-register file is rejected.
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, make([]byte, mmapHeader+32*8), 0o644); err != nil {
		t.Fatal(err)
	}
	// All-zero content is the crashed-during-create case: accepted as fresh.
	z, err := OpenMmap(junk, 32)
	if err != nil {
		t.Fatalf("zeroed file rejected: %v", err)
	}
	if z.Reopened() {
		t.Fatal("zeroed file reported Reopened")
	}
	z.Close()
	// Corrupt the magic: rejected.
	data, _ := os.ReadFile(junk)
	copy(data, "GARBAGE!")
	if err := os.WriteFile(junk, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMmap(junk, 32); err == nil || !strings.Contains(err.Error(), "not a register file") {
		t.Fatalf("corrupt magic: got %v", err)
	}

	// A directory path fails cleanly with a path error, not a panic.
	if _, err := OpenMmap(dir, 8); err == nil {
		t.Fatal("directory path accepted")
	} else {
		var perr *os.PathError
		if !errors.As(err, &perr) && !strings.Contains(err.Error(), dir) {
			t.Fatalf("directory open error does not name the path: %v", err)
		}
	}
}
