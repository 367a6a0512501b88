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
// disk in one msync, header and stamp together. Format.Open takes it from
// there: a store holding the stamp opens as it is; one holding 0 — created,
// or left by a creator that died before its stamp's ack — opens, stamped
// in an acked write, only if its body reads zero; an earlier format's stamp
// is refused with its reason, any other as another store's; a refused
// store is left as it was.
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

	// Format.Open over what the opener found, on a register file and on a
	// memtest.Lossy.
	const size, stamp = 8, 41
	f := Format{Stamp: stamp, Body: [2]int{2, 5}, Holds: "rows", Earlier: map[int64]string{40: "is of format 40"},
		Fix: "start it fresh"}
	stores := []struct {
		name string
		// open builds a store holding cell0 and body at cell 4, then opens
		// it as an opener would, stamped with stamp — created when create
		// is set. crash makes what its opens acked all a successor sees.
		open func(t *testing.T, cell0, body int64, create bool) (b Backend, found int64, crash func() Backend)
	}{
		{"mmap", func(t *testing.T, cell0, body int64, create bool) (Backend, int64, func() Backend) {
			spec := "mmap:" + filepath.Join(t.TempDir(), "x")
			if !create {
				b, err := Open(spec, size)
				if err != nil {
					t.Fatal(err)
				}
				b.Write(0, cell0)
				b.Write(4, body)
				b.Close()
			}
			bs, found, err := OpenEach(spec, size, Instance{Stamp: stamp})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { bs[0].Close() })
			return bs[0], found[0], func() Backend {
				bs[0].Close()
				b, err := Open(spec, size)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { b.Close() })
				return b
			}
		}},
		{"lossy", func(t *testing.T, cell0, body int64, create bool) (Backend, int64, func() Backend) {
			l := memtest.NewLossy(size)
			if !create {
				l.WriteAcked(0, []int64{cell0})
				l.WriteAcked(4, []int64{body})
				l.Crash()
			}
			found, err := l.Stamp(stamp)
			if err != nil {
				t.Fatal(err)
			}
			return l, found, func() Backend { l.Crash(); return l }
		}},
	}
	for _, st := range stores {
		for _, tc := range []struct {
			name        string
			create      bool
			cell0, body int64
			refusal     string // "": it opens
		}{
			{"created", true, 0, 0, ""},
			{"reopened", false, stamp, 7, ""},
			{"unstamped and empty", false, 0, 0, ""},
			{"unstamped with data", false, 0, 7, "holds rows but no fingerprint (fingerprint 0x0, want 0x29); start it fresh"},
			{"earlier stamp", false, 40, 7, "is of format 40; start it fresh"},
			{"foreign", false, 99, 0, "holds fingerprint 0x63, want 0x29; start it fresh"},
		} {
			t.Run(st.name+"/"+tc.name, func(t *testing.T) {
				b, found, crash := st.open(t, tc.cell0, tc.body, tc.create)
				before := make([]int64, size)
				if err := b.ReadRange(0, before); err != nil {
					t.Fatal(err)
				}
				err := f.Open(b, found)
				if tc.refusal != "" {
					if err == nil || err.Error() != tc.refusal {
						t.Fatalf("Open = %v, want the refusal %q", err, tc.refusal)
					}
				} else if err != nil {
					t.Fatalf("Open refused the store: %v", err)
				}
				want := slices.Clone(before)
				if tc.refusal == "" {
					want[0] = stamp
				}
				after := make([]int64, size)
				if err := crash().ReadRange(0, after); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(after, want) {
					t.Errorf("after Open and a crash the store holds %v, want %v", after, want)
				}
			})
		}
	}
}

// TestReader: a Reader returns its range in order, at most n cells a
// call and never past a window, reads each window in one ReadRange, and
// returns nothing at the end; a Seek starts over.
func TestReader(t *testing.T) {
	const size, at, end = 3*WindowCells + 10, 3, 2*WindowCells + 100
	l := memtest.NewLossy(size)
	for i := range size {
		l.Write(i, int64(i))
	}
	var r Reader
	r.Seek(l, at, end)
	next := at
	for n := 1; ; n = n*3 + 1 {
		c, err := r.Next(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(c) == 0 {
			break
		}
		if len(c) > n || (next-at)/WindowCells != (next-at+len(c)-1)/WindowCells {
			t.Fatalf("Next(%d) at cell %d returned %d cells", n, next, len(c))
		}
		for _, v := range c {
			if v != int64(next) {
				t.Fatalf("cell %d read as %d", next, v)
			}
			next++
		}
	}
	if next != end || l.Counts().Ranges != 3 {
		t.Errorf("read to cell %d in %d ReadRanges, want to %d in 3", next, l.Counts().Ranges, end)
	}
	r.Seek(l, 7, 8)
	if c, err := r.Next(5); err != nil || !slices.Equal(c, []int64{7}) {
		t.Errorf("after a Seek, Next = %v, %v; want [7]", c, err)
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
