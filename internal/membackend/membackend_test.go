package membackend

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"atmostonce/internal/memtest"
	"atmostonce/internal/shmem"
)

// mmapFactory builds a memtest.Factory over one register file path so
// the Reopen subtest maps the same storage twice.
func mmapFactory(t *testing.T) memtest.Factory {
	dir := t.TempDir()
	var path string
	open := func(t *testing.T, size int) shmem.Mem {
		b, err := Open("mmap:"+path, size)
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

func TestMmapSuite(t *testing.T) {
	requireMmap(t)
	memtest.RunMemSuite(t, mmapFactory(t))
}

func requireMmap(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("mmap backend requires linux")
	}
}

// TestParseSpec is the spec table test: well-formed specs split into
// kind/argument, malformed ones are rejected with errors that name the
// problem, and only "" and "atomic" — no remote kind, nothing
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
		{"mmap:/var/lib/amo/regs", "mmap", "/var/lib/amo/regs", "", false},
		{"net:127.0.0.1:7878/jobs", "net", "127.0.0.1:7878/jobs", "", false},
		{"atomic:x", "atomic", "x", "", false}, // Open refuses the argument
		{"atomc", "atomc", "", "", false},      // Open refuses the kind
		{"atomic:", "", "", "dangling ':'", false},
		{"mmap:", "", "", "dangling ':'", false},
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
		"atomic:":  "dangling ':'",
		"mmap:":    "dangling ':'",
		"atomc":    `did you mean "atomic"`,
		"mmmap:/x": `did you mean "mmap"`,
		"zzz":      "unknown backend",
		" atomic":  "whitespace",
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

// TestShardSpec: OpenEach opens one instance per suffix, and the kind's
// opener places it — mmap at the end of the path, while atomic, which
// has no instance names, gives each suffix a store of its own.
func TestShardSpec(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()
	bs, _, err := OpenEach("mmap:"+filepath.Join(dir, "x"), 8, Instance{Suffix: ".shard0"}, Instance{Suffix: ".shard2"})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bs {
		b.Write(0, int64(i+1))
		b.Close()
	}
	r, err := Open("mmap:"+filepath.Join(dir, "x.shard2"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Read(0); got != 2 {
		t.Errorf("x.shard2 reads %d, want 2: the second instance's mark", got)
	}
	r.Close()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, []string{"x.shard0", "x.shard2"}) {
		t.Errorf("OpenEach created %v, want [x.shard0 x.shard2]", names)
	}

	as, _, err := OpenEach("atomic", 8, Instance{Suffix: ".shard0"}, Instance{Suffix: ".shard1"})
	if err != nil {
		t.Fatal(err)
	}
	as[0].Write(3, 7)
	if got := as[1].Read(3); got != 0 {
		t.Errorf("atomic instances share cells: the second reads %d", got)
	}
}

// TestOpenerStamps: a store an open creates holds its instance's stamp in
// cell 0 and reports 0, not Reopened; a store an open finds reports its
// cell 0 and is not written, whatever stamp the open brings — an
// unstamped one reports 0, Reopened. A fresh register file reaches the
// disk in one msync, header and stamp together.
func TestOpenerStamps(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()
	syncs0 := mbSyncs.Value()
	fresh, cell0, err := OpenEach("mmap:"+filepath.Join(dir, "x"), 8, Instance{".a", 41}, Instance{".b", 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := mbSyncs.Value() - syncs0; got != 2 {
		t.Errorf("creating two register files took %d msyncs, want 2", got)
	}
	for i, want := range []int64{41, 0} {
		if fresh[i].Reopened() || cell0[i] != 0 || fresh[i].Read(0) != want {
			t.Errorf("created instance %d: Reopened %v, reported cell 0 %d, holds %d; want false, 0, %d",
				i, fresh[i].Reopened(), cell0[i], fresh[i].Read(0), want)
		}
		fresh[i].Close()
	}
	again, cell0, err := OpenEach("mmap:"+filepath.Join(dir, "x"), 8, Instance{".a", 42}, Instance{".b", 43})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{41, 0} {
		if !again[i].Reopened() || cell0[i] != want || again[i].Read(0) != want {
			t.Errorf("reopened instance %d: Reopened %v, reported cell 0 %d, holds %d; want true, %d, %d",
				i, again[i].Reopened(), cell0[i], again[i].Read(0), want, want)
		}
		again[i].Close()
	}

	as, cell0, err := OpenEach("atomic", 8, Instance{"", 7})
	if err != nil {
		t.Fatal(err)
	}
	if as[0].Reopened() || cell0[0] != 0 || as[0].Read(0) != 7 {
		t.Errorf("atomic instance: Reopened %v, reported cell 0 %d, holds %d; want false, 0, 7", as[0].Reopened(), cell0[0], as[0].Read(0))
	}
}

// TestOpenEachClosesOnFailure: an mmap group whose second instance cannot
// open fails naming it, and the first is unmapped again, not left behind.
func TestOpenEachClosesOnFailure(t *testing.T) {
	requireMmap(t)
	base := filepath.Join(t.TempDir(), "x")
	if err := os.Mkdir(base+".shard1", 0o755); err != nil {
		t.Fatal(err)
	}
	bs, _, err := OpenEach("mmap:"+base, 8, Instance{Suffix: ".shard0"}, Instance{Suffix: ".shard1"})
	if err == nil {
		for _, b := range bs {
			b.Close()
		}
		t.Fatal("a directory opened as a register file")
	}
	if !strings.Contains(err.Error(), base+".shard1") {
		t.Errorf("error does not name the instance that failed: %v", err)
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(maps), base+".shard0") {
		t.Errorf("%s.shard0 is still mapped after the group failed", base)
	}
}

// TestKinds: this package registers atomic and mmap and nothing else;
// net comes with internal/netmem.
func TestKinds(t *testing.T) {
	if got := Kinds(); !slices.Equal(got, []string{"atomic", "mmap"}) {
		t.Fatalf("registry holds %v, want [atomic mmap]", got)
	}
}

func TestMmapHeaderValidation(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "regs")

	b, err := OpenMmap(path, 32, 0)
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
	r, err := OpenMmap(path, 32, 0)
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
	if _, err := OpenMmap(path, 64, 0); err == nil {
		t.Fatal("cell-count mismatch accepted")
	}

	// A non-register file is rejected.
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, make([]byte, mmapHeader+32*8), 0o644); err != nil {
		t.Fatal(err)
	}
	// All-zero content is the crashed-during-create case: accepted as fresh.
	z, err := OpenMmap(junk, 32, 0)
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
	if _, err := OpenMmap(junk, 32, 0); err == nil || !strings.Contains(err.Error(), "not a register file") {
		t.Fatalf("corrupt magic: got %v", err)
	}

	// A directory path fails cleanly with a path error, not a panic.
	if _, err := OpenMmap(dir, 8, 0); err == nil {
		t.Fatal("directory path accepted")
	} else {
		var perr *os.PathError
		if !errors.As(err, &perr) && !strings.Contains(err.Error(), dir) {
			t.Fatalf("directory open error does not name the path: %v", err)
		}
	}
}
