package dispatch

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"slices"
	"time"

	"atmostonce/internal/membackend"
	"atmostonce/internal/obs"
	"atmostonce/internal/obs/eventlog"
)

// Durable shard state. When Config.Backend keeps a journal, each shard
// lays its register file out as
//
//	cell 0                — config fingerprint (layout version, shard id,
//	                        shard count, m, MaxBatch, MaxJobs folded
//	                        through FNV; reopening with a different
//	                        shape is refused)
//	cells 1..jmetaCells-1 — reserved
//	m rows × jwords cells — the durable journal, a bitmap per worker:
//	                        jwords = ⌈(MaxJobs+1)/64⌉, and bit id&63 of
//	                        word id>>6 in row p says worker p performed
//	                        the job with dispatcher-wide id `id`; the bit
//	                        is acked before the payload is invoked
//
// and nothing else: the backend holds only what a successor reads. The
// round's next/done registers coordinate the m workers of one round, all
// goroutines of this process, and recovery starts every round from the
// model's all-zero state — so they live in the conc.Runtime's private
// in-process memory like an atomic shard's, and the backend is touched
// only by flushClaims, the recovery scan, Sync and Close.
//
// The rows mirror the paper's done matrix — single-writer ownership
// registers, which jobs each process performed — over durable
// dispatcher-wide ids instead of the round's local ones. Ids are dense
// (1, 2, 3, … off one cursor), so the performed set costs a bit per id
// per row, m/8 bytes of store per job, and the recovered set in memory
// (a denseset.Set) is the OR of the rows: recovery never looks at an id.
// See DESIGN.md §7 for the protocol; TestFlushCrashWindows is its
// crash-window analysis.
const jmetaCells = 8

// layoutVersion names the register-file layout above; it is folded into
// the fingerprint, so a store of any other layout fails the fingerprint
// check even where its size happens to match.
const layoutVersion = "amo-dispatch-v5"

// layoutChange is what every refusal of a store this layout cannot own
// says: a store that does not match is never reinterpreted.
const layoutChange = "layout " + layoutVersion + " keeps each worker's journal row as a bitmap over job ids, ⌈(MaxJobs+1)/64⌉ cells; a v4 store holds the ids themselves, MaxJobs cells a row, and is not reinterpreted — start durable stores fresh"

// fingerprint folds a shard's layout-determining configuration into a
// positive int64 stored at cell 0 of its register file under layout. The
// shard COUNT is included even though it does not shape this file:
// reopening a 2-shard register-file set with Shards=1 would silently
// ignore shard 1's journal and re-execute its jobs, so any change is refused.
func fingerprint(layout string, shard int, cfg *Config) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, layout+"/%d of %d/%d/%d/%d", shard, cfg.Shards, cfg.WorkersPerShard, cfg.MaxBatch, cfg.MaxJobs)
	return int64(h.Sum64() >> 1) // keep it positive and distinct from the empty cell
}

// journalFormat is shard's store as membackend.Format opens it: the
// fingerprint, then the rows. A store of an earlier layout and the same
// shape carries that layout's fingerprint.
func journalFormat(shard int, cfg *Config) membackend.Format {
	earlier := map[int64]string{}
	for _, v := range []string{"amo-dispatch-v2", "amo-dispatch-v3", "amo-dispatch-v4"} {
		earlier[fingerprint(v, shard, cfg)] = "was written under layout " + v
	}
	return membackend.Format{
		Stamp:   fingerprint(layoutVersion, shard, cfg),
		Body:    [2]int{jmetaCells, journalCells(cfg)},
		Holds:   "journal rows",
		Earlier: earlier,
		Fix:     "use the original configuration (Shards/WorkersPerShard/MaxBatch/MaxJobs) or start from a fresh file; " + layoutChange,
	}
}

// journalStores is what New asks newMem for: shard i's store is the
// spec's instance .shard<i>, stamped with its fingerprint when the open
// creates it.
func journalStores(cfg *Config) []membackend.Instance {
	insts := make([]membackend.Instance, cfg.Shards)
	for i := range insts {
		insts[i] = membackend.Instance{Suffix: fmt.Sprintf(".shard%d", i), Stamp: fingerprint(layoutVersion, i, cfg)}
	}
	return insts
}

// jrow returns the first cell of worker p's journal row (p 1-based).
func (s *shard) jrow(p int) int { return jmetaCells + (p-1)*s.jwords }

// journalCells is the size of every shard's store: the metadata cells
// and a row per worker of a bit per id 0..MaxJobs (bit 0 is no id and
// stays clear).
func journalCells(cfg *Config) int { return jmetaCells + cfg.WorkersPerShard*(cfg.MaxJobs/64+1) }

// openDurable takes b as the shard's store, whose cell 0 held cell0 at
// open, validates it and, when the store holds pre-crash state, recovers
// it: the journal rows are ORed into d.recovered. On an error b is
// closed.
func (s *shard) openDurable(cfg *Config, b membackend.Backend, cell0 int64) error {
	m, maxJobs := cfg.WorkersPerShard, cfg.MaxJobs
	s.jwords = maxJobs/64 + 1
	size := journalCells(cfg)
	if b.Size() < size {
		b.Close()
		return fmt.Errorf("dispatch: shard %d backend holds %d cells, need %d", s.id, b.Size(), size)
	}
	s.backend = b
	s.durable = true
	s.jbatch = cfg.JournalBatch
	// Claim buffers are sized once; the round path appends into them
	// without ever growing (flush fires at jbatch).
	s.claims = make([]workerClaims, m)
	for p := range s.claims {
		s.claims[p].ids = make([]int64, 0, s.jbatch)
		s.claims[p].locals = make([]int, 0, s.jbatch)
		s.claims[p].written = make([]uint64, s.jwords/pageWords/64+1)
	}

	// The opener stamped a store it created: only a reopened one goes
	// through the stamp rule and is read.
	if !b.Reopened() {
		return nil
	}
	if err := journalFormat(s.id, cfg).Open(b, cell0); err != nil {
		b.Close()
		eventlog.Logger().Error("dispatch_fingerprint_mismatch", "shard", s.id, "err", err)
		return fmt.Errorf("dispatch: shard %d register file %w", s.id, err)
	}
	scan0 := time.Now()
	eventlog.Logger().Debug("dispatch_recovery_scan_begin", "shard", s.id, "workers", m)
	s.d.recovered.Reserve(maxJobs) // ids are dense in [1, MaxJobs]: MaxJobs/8 bytes, once
	before := s.d.recovered.Len()
	var r membackend.Reader
	words := make([]uint64, min(membackend.WindowCells, s.jwords))
	for p := 1; p <= m; p++ {
		r.Seek(b, s.jrow(p), s.jrow(p)+s.jwords)
		if err := s.scanJournalRow(p, &r, words); err != nil {
			b.Close()
			eventlog.Logger().Error("dispatch_recovery_scan_failed", "shard", s.id, "row", p, "err", err)
			return fmt.Errorf("dispatch: shard %d journal scan: %w", s.id, err)
		}
	}
	if s.d.recoveryHist != nil {
		s.d.recoveryHist.Observe(uint64(time.Since(scan0)))
	}
	// An id is journaled once, in one row of one shard, so the set's
	// growth is this shard's count.
	eventlog.Logger().Debug("dispatch_recovery_scan_end",
		"shard", s.id, "recovered", s.d.recovered.Len()-before, "dur", time.Since(scan0))
	return nil
}

// scanJournalRow ORs worker p's journal row, which r reads, into
// d.recovered a window at a time (words holds one as the set takes it),
// and notes for p's shadow which pages of the row hold anything. The
// journal is input from outside the process: bit 0, or a bit above
// MaxJobs in the last word, is no id this layout ever assigned, and fails
// the scan.
func (s *shard) scanJournalRow(p int, r *membackend.Reader, words []uint64) error {
	for at := 0; at < s.jwords; {
		c, err := r.Next(s.jwords - at)
		if err != nil {
			return err
		}
		n := len(c)
		for i, v := range c {
			words[i] = uint64(v)
			if v != 0 {
				s.claims[p-1].markWritten(at + i)
			}
		}
		if at == 0 && words[0]&1 != 0 {
			return fmt.Errorf("row %d has bit 0 set, which is no job id", p)
		}
		if last := s.jwords - 1 - at; last < n {
			// Ids past MaxJobs share the last word with real ones.
			if foreign := words[last] &^ (^uint64(0) >> (63 - uint(s.d.cfg.MaxJobs)&63)); foreign != 0 {
				return fmt.Errorf("row %d has bit %d set, not an id in [1, %d]",
					p, (s.jwords-1)<<6+bits.TrailingZeros64(foreign), s.d.cfg.MaxJobs)
			}
		}
		s.d.recovered.OrWords(at<<6, words[:n])
		at += n
	}
	return nil
}

// shadowPages bounds a worker's shadow of its own journal row: pages of
// pageWords words (4 096 ids, one denseset block), 2 KiB a worker. A
// round's ids sit within a page or two of each other, so a miss is the
// id stream crossing into the next page — or a job that waited while
// whole pages of others were performed ahead of it. runWords bounds one
// acked write of a flush (1 KiB of scratch a worker); a run reaches into
// runWords/pageWords+1 pages at most, which the shadow must hold all at
// once beside the one it evicts.
const (
	shadowPages = 4
	pageWords   = 64
	runWords    = 2 * pageWords

	_ = uint(shadowPages - 1 - (runWords/pageWords + 1)) // does not compile if a run could evict its own page
)

// shadowPage is pageWords consecutive words of one journal row, as the
// store holds them; base is the index of the first within the row.
type shadowPage struct {
	base  int
	words [pageWords]int64
}

// workerClaims is one worker's journal state: its open claim buffer —
// jobs marked done in the round whose journal bits and payloads are
// deferred to the next flush; ids and locals move in lockstep, sized to
// Config.JournalBatch at construction — and the write-through shadow a
// claim needs to be a store and not a read-modify-write over the wire.
type workerClaims struct {
	ids    []int64 // dispatcher-wide ids; flushClaims sorts them
	locals []int   // the same jobs' batch slots in claim order; payloads run after the write
	// pages holds the most recently used pages of the row, front first,
	// allocated on first use; bit k of written says page k of the row has
	// ever been written (a bit per 4 096 ids). The row has one writer and
	// every earlier flush was acked, so the store is the shadow: a page
	// not held is read back with one ReadRange — or, never written, known
	// zero without one. A high-water word would not do for the second:
	// KKβ starts every worker but the first in the middle of the round
	// and brings it back down, so a worker meets page k+1 before page k.
	pages   [shadowPages]*shadowPage
	written []uint64
	run     [runWords]int64 // the words of one acked write, gathered from the pages
}

// markWritten notes that word w of the row holds a bit on the store;
// everWritten asks it of w's page.
func (c *workerClaims) markWritten(w int) {
	k := w / pageWords
	c.written[k>>6] |= 1 << (k & 63)
}

func (c *workerClaims) everWritten(w int) bool {
	k := w / pageWords
	return c.written[k>>6]&(1<<(k&63)) != 0
}

// page returns worker p's shadow page holding word w of its row, reading
// it from the store if it is not held and was ever written. It is called
// within a run's three pages or between acked writes, so the page it
// evicts — the least recently used of four — holds nothing the store
// does not.
func (s *shard) page(p, w int) *shadowPage {
	c := &s.claims[p-1]
	base := w &^ (pageWords - 1)
	// The slot of the page, else the first empty one, else the last.
	i := 0
	for i < shadowPages-1 && c.pages[i] != nil && c.pages[i].base != base {
		i++
	}
	pg := c.pages[i]
	if pg == nil || pg.base != base {
		if pg == nil {
			pg = new(shadowPage)
		}
		if !c.everWritten(base) {
			clear(pg.words[:])
		} else if err := s.backend.ReadRange(s.jrow(p)+base, pg.words[:min(pageWords, s.jwords-base)]); err != nil {
			s.journalLost(p, err)
		}
		pg.base = base
	}
	copy(c.pages[1:i+1], c.pages[:i])
	c.pages[0] = pg
	return pg
}

// claim appends one job to worker p's claim buffer, flushing when the
// buffer reaches JournalBatch — at the default of 1, on every append.
// Called only from exec, in worker p's steps.
func (s *shard) claim(p, local int) {
	c := &s.claims[p-1]
	c.ids = append(c.ids, int64(s.batch[local-1].id))
	c.locals = append(c.locals, local)
	if len(c.ids) >= s.jbatch {
		s.flushClaims(p)
	}
}

// flushClaims durably records that worker p performed every job in its
// claim buffer — their bits set in p's row, in ONE acked write unless the
// claims lie more than runWords apart — and only then runs the deferred
// payloads in claim order: record-then-do. A crash anywhere in the
// window, whichever of the flush's words it lets land, costs at most
// JournalBatch payloads per worker and never a duplicate — effectiveness,
// never safety (Theorem 2.1); TestFlushCrashWindows lands one at every
// acked write. Crashes at action granularity (§2.1) lose nothing.
//
// Every write must be ACKNOWLEDGED before the first payload runs: over
// the networked register service, a pipelined write still sitting in a
// buffer when the process dies would let the successor re-run a job
// whose payload already executed — a duplicate. A failed acked write
// (connection dead after retries, or fenced by a successor's lease)
// panics: this worker's process has lost the right to execute payloads,
// and dying before the payload is exactly the crash the recovery
// protocol is built to absorb.
//
// A write carries the row's words from the lowest to the highest one
// claimed in — KKβ spreads a worker's sixteen claims over a dozen words
// of the round, and the words between go out as the store already holds
// them. The ids are sorted first, so a run is written out before the
// pages of the next are looked up and eviction never meets an unwritten
// bit.
//
// It runs as worker p — on p's goroutine in a free round, on the shard's
// in a scheduled one — either from claim (buffer full) or from the
// runtime's end-of-round Flush hook; between rounds every buffer is
// empty.
func (s *shard) flushClaims(p int) {
	c := &s.claims[p-1]
	if len(c.ids) == 0 {
		return
	}
	slices.Sort(c.ids)
	for i := 0; i < len(c.ids); {
		lo := int(c.ids[i] >> 6)
		hi := lo
		for ; i < len(c.ids) && int(c.ids[i]>>6)-lo < runWords; i++ {
			hi = int(c.ids[i] >> 6)
			pg := s.page(p, hi)
			pg.words[hi-pg.base] |= 1 << (uint(c.ids[i]) & 63)
			c.markWritten(hi)
		}
		run := c.run[:hi-lo+1]
		for n := 0; n < len(run); {
			pg := s.page(p, lo+n)
			n += copy(run[n:], pg.words[lo+n-pg.base:])
		}
		if err := s.backend.WriteAcked(s.jrow(p)+lo, run); err != nil {
			s.journalLost(p, err)
		}
	}
	s.journaled.Add(uint64(len(c.ids)))
	tr := s.d.tr
	for _, local := range c.locals {
		e := &s.batch[local-1]
		if tr != nil {
			tr.Record(e.id, obs.TraceJournaled, s.id)
		}
		s.runPayload(e)
	}
	c.ids = c.ids[:0]
	c.locals = c.locals[:0]
}

// journalLost ends worker p's process: its flush's journal write, or the
// page read before it, failed (see flushClaims).
func (s *shard) journalLost(p int, err error) {
	id := s.claims[p-1].ids[0]
	eventlog.CrashDump("dispatch_journal_write_failed", "shard", s.id, "job", id, "err", err)
	panic(fmt.Sprintf("dispatch: shard %d journal write for job %d failed (fenced or unreachable backend): %v", s.id, id, err))
}
