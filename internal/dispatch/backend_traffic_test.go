package dispatch

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"atmostonce/internal/core"
	"atmostonce/internal/membackend"
	"atmostonce/internal/memtest"
	"atmostonce/internal/netmem"
	"atmostonce/internal/obs"
)

// clientRequests sums the netmem client's per-op request counters, and
// separately the ops that read registers; byOp is each op's count.
func clientRequests() (total, reads uint64, byOp map[string]uint64) {
	byOp = map[string]uint64{}
	for k, v := range obs.Default.Snapshot() {
		op, ok := strings.CutPrefix(k, `amo_netmem_client_requests_total{op="`)
		if !ok {
			continue
		}
		n := v.(uint64)
		total += n
		byOp[strings.TrimSuffix(op, `"}`)] = n
		if strings.Contains(k, `op="read_range"`) {
			reads += n
		}
	}
	return total, reads, byOp
}

// TestNetOpenIsOneFlight: a net: dispatcher opens in its session's one
// flight. A fresh 2-shard New sends a hello and an acquire a shard and
// nothing else — the hello stamps each fingerprint, so no acked write
// precedes the first flush — and a reopen adds the journal rows' ranged
// reads and no read of cell 0, whose fingerprint the hello reported.
func TestNetOpenIsOneFlight(t *testing.T) {
	srv := netmem.NewServer(netmem.ServerOptions{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cfg := Config{Shards: 2, WorkersPerShard: 2, MaxBatch: 64, MaxJobs: 100,
		Backend: fmt.Sprintf("net:%s/open-%d", addr, time.Now().UnixNano())}
	open := func(what string, want map[string]uint64) *Dispatcher {
		t.Helper()
		_, _, before := clientRequests()
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, _, after := clientRequests()
		for op, n := range after {
			if got := n - before[op]; got != want[op] {
				t.Errorf("%s: %d %s requests, want %d (all: %v)", what, got, op, want[op], want)
			}
		}
		return d
	}
	d := open("fresh New", map[string]uint64{"hello": 2, "acquire": 2})
	if _, err := d.Do(context.Background(), bare(func() {})); err != nil {
		t.Fatal(err)
	}
	d.Flush()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rows := uint64(cfg.Shards * cfg.WorkersPerShard) // a row of 2 words is one ranged read
	d = open("reopening New", map[string]uint64{"hello": 2, "acquire": 2, "read_range": rows})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRoundSendsNoRegisterTraffic pins what a durable shard may
// put on its backend: the fingerprint once, the words of each flush, and
// nothing else — the round's next/done registers never leave the process,
// and on a fresh store under a forward stream no shadow page is read
// back. Over a memtest.Lossy the cell count is exact at JournalBatch 1
// (a flush is the one word of its one claim) and at 16 stays below a cell
// per claim; over net: it is the wire's request counter against the
// group-commit bound.
func TestDurableRoundSendsNoRegisterTraffic(t *testing.T) {
	const (
		jobs    = 3 * 4096 // three shadow pages a row, none written before its first touch
		shards  = 2
		workers = 4
	)
	stream := func(t *testing.T, cfg Config) Stats {
		t.Helper()
		cfg.Shards, cfg.WorkersPerShard, cfg.MaxBatch, cfg.MaxJobs = shards, workers, 256, jobs
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < jobs; i++ {
			if _, err := d.Do(context.Background(), bare(func() {})); err != nil {
				t.Fatal(err)
			}
		}
		d.Flush()
		st := d.Stats()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if st.Performed != jobs || st.Duplicates != 0 {
			t.Fatalf("performed %d of %d jobs, %d duplicates", st.Performed, jobs, st.Duplicates)
		}
		return st
	}

	for _, jb := range []int{1, 16} {
		t.Run(fmt.Sprintf("counting/batch%d", jb), func(t *testing.T) {
			var stores []*memtest.Lossy
			stream(t, Config{
				JournalBatch: jb,
				newMem: perShard(func(shard, size int) *memtest.Lossy {
					stores = append(stores, memtest.NewLossy(size))
					return stores[shard]
				}),
			})
			var reads, writes int
			for _, st := range stores {
				reads += st.Counts().Reads
				writes += st.Counts().Writes
			}
			if want := jobs + shards; writes > want || jb == 1 && writes != want {
				t.Errorf("backends saw %d cell writes, want %d at JournalBatch 1 and no more at 16 (%d claims + %d fingerprints)", writes, want, jobs, shards)
			}
			if reads != 0 {
				t.Errorf("backends saw %d cell reads on fresh stores, want 0", reads)
			}
		})
	}

	t.Run("net/batch16", func(t *testing.T) {
		srv := netmem.NewServer(netmem.ServerOptions{})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		const jb, ttl = 16, 500 * time.Millisecond // netFactory's lease
		t0 := time.Now()
		req0, reads0, _ := clientRequests()
		st := stream(t, Config{
			JournalBatch: jb,
			newMem:       netFactory(addr, fmt.Sprintf("traffic-%d", t0.UnixNano()), nil),
		})
		req1, reads1, _ := clientRequests()
		// Full claims, at most one short claim per worker per round, the
		// open, and a lease renew every ttl/3 per client.
		renews := shards * (int(time.Since(t0)/(ttl/3)) + 1)
		bound := uint64(jobs/jb + workers*int(st.Rounds) + shards + renews)
		if got := req1 - req0; got > bound {
			t.Errorf("%d client requests for %d jobs in %d rounds, want ≤ %d", got, jobs, st.Rounds, bound)
		}
		if got := reads1 - reads0; got != 0 {
			t.Errorf("%d register reads crossed the wire, want 0", got)
		}
	})
}

// TestParentLayoutRefused: a store written under an earlier layout —
// amo-dispatch-v4 (journal rows of ids, MaxJobs cells each), v3 (the
// same cells, single submits numbered from per-shard blocks) or v2 (the
// round's register window after the rows) — is refused at New with the
// layout-change message, which names the current version and what
// changed — by its size where the backend checks sizes, by its
// fingerprint otherwise — and is left byte for byte as it was.
func TestParentLayoutRefused(t *testing.T) {
	requireMmap(t)
	cfg := Config{Shards: 1, WorkersPerShard: 2, MaxBatch: 32, MaxJobs: 100}
	v5size := jmetaCells + cfg.WorkersPerShard*(cfg.MaxJobs/64+1)
	v4size := jmetaCells + cfg.WorkersPerShard*cfg.MaxJobs // v3's too
	v2size := v4size + core.Layout{M: cfg.WorkersPerShard, RowLen: cfg.MaxBatch}.Padded().Size()
	oldFP := func(version string) int64 {
		h := fnv.New64a()
		fmt.Fprintf(h, version+"/%d of %d/%d/%d/%d", 0, cfg.Shards, cfg.WorkersPerShard, cfg.MaxBatch, cfg.MaxJobs)
		return int64(h.Sum64() >> 1)
	}
	// An old store mid-life: fingerprint, a few journaled ids, round dirt.
	fill := func(b membackend.Backend, fp int64) {
		b.Write(0, fp)
		b.Write(jmetaCells, 1)
		b.Write(jmetaCells+1, 3)
		if b.Size() >= v4size {
			b.Write(jmetaCells+cfg.MaxJobs, 2)
		}
		if b.Size() > v4size {
			b.Write(v4size, 7)
			b.Write(b.Size()-1, 1)
		}
	}
	refused := func(t *testing.T, cfg Config) {
		t.Helper()
		d, err := New(cfg)
		if err == nil {
			d.Close()
			t.Fatal("parent-layout store accepted")
		}
		if !strings.Contains(err.Error(), layoutChange) || !strings.Contains(err.Error(), "amo-dispatch-v5") ||
			!strings.Contains(err.Error(), "a v4 store holds the ids themselves") {
			t.Fatalf("refusal does not name the layout change from v4 to v5: %v", err)
		}
	}

	for _, tc := range []struct {
		name, version string
		size          int
	}{
		{"mmap", "amo-dispatch-v2", v2size},
		{"mmap same size", "amo-dispatch-v4", v5size}, // past the size check: the fingerprint refuses it
		{"mmap v3", "amo-dispatch-v3", v4size},
		{"mmap v4", "amo-dispatch-v4", v4size},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "regs.shard0")
			b, err := membackend.OpenMmap(path, tc.size, 0)
			if err != nil {
				t.Fatal(err)
			}
			fill(b, oldFP(tc.version))
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			c := cfg
			c.newMem = mmapFactory(dir)
			refused(t, c)
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("refused register file was modified")
			}
		})
	}

	for _, tc := range []struct {
		name, version string
		size          int
	}{
		{"net", "amo-dispatch-v2", v2size},
		{"net v4", "amo-dispatch-v4", v4size},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := netmem.NewServer(netmem.ServerOptions{})
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ns := fmt.Sprintf("old-%d", time.Now().UnixNano())
			cells := func() []int64 {
				t.Helper()
				bs, _, err := netFactory(addr, ns, nil)(tc.size, shard0)
				if err != nil {
					t.Fatal(err)
				}
				b := bs[0]
				defer b.Close()
				if !b.Reopened() {
					fill(b, oldFP(tc.version))
				}
				out := make([]int64, tc.size)
				if err := b.ReadRange(0, out); err != nil {
					t.Fatal(err)
				}
				return out
			}
			before := cells()
			c := cfg
			c.newMem = netFactory(addr, ns, nil)
			refused(t, c)
			after := cells()
			for a := range before {
				if before[a] != after[a] {
					t.Fatalf("refused namespace was modified: cell %d = %d, was %d", a, after[a], before[a])
				}
			}
		})
	}
}
