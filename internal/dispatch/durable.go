package dispatch

import (
	"fmt"
	"hash/fnv"
	"time"

	"atmostonce/internal/obs"
	"atmostonce/internal/obs/eventlog"
)

// Durable shard state. When Config.NewMem supplies a backend, each shard
// lays its register file out as
//
//	cell 0                 — config fingerprint (layout version, shard id,
//	                         shard count, m, MaxBatch, MaxJobs folded
//	                         through FNV; reopening with a different
//	                         shape is refused)
//	cells 1..jmetaCells-1  — reserved
//	m rows × MaxJobs cells — the durable journal: worker p appends the
//	                         dispatcher-wide id of every job it performs
//	                         to row p, in order, before invoking the
//	                         payload
//
// and nothing else: the backend holds only what a successor reads. The
// round's next/done registers coordinate the m workers of one round, all
// goroutines of this process, and recovery starts every round from the
// model's all-zero state — so they live in the conc.Runtime's private
// in-process memory like an atomic shard's, and the backend is touched
// only by flushClaims, the recovery scan, Sync and Close.
//
// The journal rows mirror the paper's done matrix — single-writer
// ownership registers, append-only within a row — but hold durable
// dispatcher-wide ids instead of the round's dense local ids, so a
// recovery scan (scan each row to its first zero) reconstructs exactly
// which jobs were ever performed, across every round and every process
// incarnation. See DESIGN.md §7 for the protocol and its crash-window
// analysis.
const jmetaCells = 8

// layoutVersion names the register-file layout above; it is folded into
// the fingerprint, so a store of any other layout fails the fingerprint
// check even where its size happens to match.
const layoutVersion = "amo-dispatch-v4"

// layoutChange is what every refusal of a store this layout cannot own
// says: a store that does not match is never reinterpreted.
const layoutChange = "layout " + layoutVersion + " numbers every job off one cursor in acceptance order; a v3 store has the same cells but numbered single submits from per-shard blocks of 64, so a replayed stream would be deduplicated against the wrong ids, and an earlier one also holds the round registers after the journal: neither is reinterpreted — start durable stores fresh"

// fingerprint folds a shard's layout-determining configuration into a
// positive int64 stored at cell 0 of its register file. The shard COUNT
// is included even though it does not shape this file: reopening a
// 2-shard register-file set with Shards=1 would silently ignore shard
// 1's journal and re-execute its jobs, so any shape change is refused.
func fingerprint(shard, shards, m, maxBatch, maxJobs int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, layoutVersion+"/%d of %d/%d/%d/%d", shard, shards, m, maxBatch, maxJobs)
	return int64(h.Sum64() >> 1) // keep it positive and distinct from the empty cell
}

// jaddr returns the journal cell for worker p's idx-th performed job
// (p 1-based, idx 0-based).
func (s *shard) jaddr(p, idx int) int { return jmetaCells + (p-1)*s.jlen + idx }

// openDurable builds the shard's backend, validates or initializes its
// metadata and, when the backend holds pre-crash state, recovers it:
// the journal rows are scanned for performed job ids (added to
// d.recovered) and the per-worker append cursors are rebuilt.
func (s *shard) openDurable(cfg *Config) error {
	m, maxBatch, maxJobs := cfg.Workers, cfg.MaxBatch, cfg.MaxJobs
	size := jmetaCells + m*maxJobs
	b, err := cfg.NewMem(s.id, size)
	if err != nil {
		// The commonest way to get here with a store that exists is a size
		// the backend refuses, so the refusal names the layout.
		return fmt.Errorf("dispatch: shard %d backend (%d cells): %w; %s", s.id, size, err, layoutChange)
	}
	if b.Size() < size {
		b.Close()
		return fmt.Errorf("dispatch: shard %d backend holds %d cells, need %d", s.id, b.Size(), size)
	}
	s.backend = b
	s.durable = true
	s.jlen = maxJobs
	s.jcur = make([]int, m)
	s.jbatch = cfg.JournalBatch
	// Claim buffers are sized once; the round path appends into them
	// without ever growing (flush fires at jbatch).
	s.claims = make([]workerClaims, m)
	for p := range s.claims {
		s.claims[p].ids = make([]int64, 0, s.jbatch)
		s.claims[p].locals = make([]int, 0, s.jbatch)
	}

	fp := fingerprint(s.id, cfg.Shards, m, maxBatch, maxJobs)
	if b.Reopened() {
		chunk := make([]int64, min(scanChunk, s.jlen))
		if err := b.ReadRange(0, chunk[:1]); err != nil {
			b.Close()
			return fmt.Errorf("dispatch: shard %d fingerprint read: %w", s.id, err)
		}
		if got := chunk[0]; got != fp {
			b.Close()
			eventlog.Logger().Error("dispatch_fingerprint_mismatch",
				"shard", s.id, "got", fmt.Sprintf("%#x", got), "want", fmt.Sprintf("%#x", fp))
			return fmt.Errorf("dispatch: shard %d register file was written by a different configuration or layout (fingerprint %#x, want %#x); use the original Shards/Workers/MaxBatch/MaxJobs or start from a fresh file; %s",
				s.id, got, fp, layoutChange)
		}
		scan0 := time.Now()
		eventlog.Logger().Info("dispatch_recovery_scan_begin", "shard", s.id, "workers", m)
		s.d.recovered.Reserve(maxJobs) // ids are dense in [1, MaxJobs]: MaxJobs/8 bytes, once
		recovered := 0
		for p := 1; p <= m; p++ {
			n, err := s.scanJournalRow(p, chunk)
			if err != nil {
				b.Close()
				eventlog.Logger().Error("dispatch_recovery_scan_failed", "shard", s.id, "row", p, "err", err)
				return fmt.Errorf("dispatch: shard %d journal scan: %w", s.id, err)
			}
			s.jcur[p-1] = n
			recovered += n
		}
		if s.d.recoveryHist != nil {
			s.d.recoveryHist.Observe(uint64(time.Since(scan0)))
		}
		eventlog.Logger().Info("dispatch_recovery_scan_end",
			"shard", s.id, "recovered", recovered, "dur", time.Since(scan0))
	} else if err := b.WriteAcked(0, []int64{fp}, false); err != nil {
		// Acked at creation: a journal row need share no page with cell 0,
		// so no later flush would carry the fingerprint to the store.
		b.Close()
		return fmt.Errorf("dispatch: shard %d fingerprint write: %w", s.id, err)
	}
	return nil
}

// scanChunk sizes the journal-scan range reads: big enough that a
// remote row costs a handful of round trips, small enough not to drag
// megabytes for a nearly-empty row.
const scanChunk = 4096

// scanJournalRow reads worker p's journal row up to its first zero,
// inserting the ids it holds into d.recovered. It pulls chunks (into
// the caller's scratch), not cells — over a remote backend the
// difference between O(row) network round trips and O(row/scanChunk).
// The journal is input from outside the process: a cell outside
// [1, MaxJobs] is no id this layout ever assigned, and fails the scan.
func (s *shard) scanJournalRow(p int, chunk []int64) (n int, err error) {
	for n < s.jlen {
		m := min(s.jlen-n, len(chunk))
		if err := s.backend.ReadRange(s.jaddr(p, n), chunk[:m]); err != nil {
			return n, err
		}
		for _, id := range chunk[:m] {
			if id == 0 {
				return n, nil
			}
			if id < 0 || id > int64(s.jlen) {
				return n, fmt.Errorf("row %d cell %d holds %d, not an id in [1, %d]", p, n, id, s.jlen)
			}
			s.d.recovered.Insert(int(id))
			n++
		}
	}
	return n, nil
}

// workerClaims is one worker's open claim buffer: jobs marked done in
// the round whose journal records and payloads are deferred to the next
// flush. ids and locals move in lockstep; both are sized to
// Config.JournalBatch at construction and never grow.
type workerClaims struct {
	ids    []int64 // dispatcher-wide ids as cell values, journaled in one acked write
	locals []int   // matching batch slots, payloads run after the write
}

// claim appends one job to worker p's claim buffer, flushing when the
// buffer reaches JournalBatch — at the default of 1, on every append.
// Called only from exec on p's own goroutine.
func (s *shard) claim(p, local int) {
	c := &s.claims[p-1]
	c.ids = append(c.ids, int64(s.batch[local-1].id))
	c.locals = append(c.locals, local)
	if len(c.ids) >= s.jbatch {
		s.flushClaims(p)
	}
}

// flushClaims durably records that worker p performed every job in its
// claim buffer — ONE acked write of all the claimed ids — and only then
// runs the deferred payloads in claim order. Crash ordering:
// record-then-do. A process killed between the two re-performs nothing
// on recovery — the at-most-once guarantee is absolute — at the price of
// counting the jobs performed even though their payloads never ran, the
// same way the paper's crashes cost effectiveness, never safety
// (Theorem 2.1 makes that trade unavoidable): a crash anywhere in the
// window costs at most JournalBatch payloads per worker, and never a
// duplicate. Cooperative crashes (injected via CrashPlan, or any stop at
// action granularity, the paper's model §2.1) sit outside the record/do
// window, so they lose nothing.
//
// The record must be ACKNOWLEDGED before the payloads run: over the
// networked register service, a pipelined write still sitting in a
// buffer when the process dies would let the successor re-run a job
// whose payload already executed — a duplicate. A failed acked write
// (connection dead after retries, or fenced by a successor's lease)
// panics: this worker's process has lost the right to execute payloads,
// and dying before the payload is exactly the crash the recovery
// protocol is built to absorb. journal=true carries the ids on the wire
// as journal records, so a remote register server witnesses them in its
// own tracer — the stitching anchor for each job's cross-process
// timeline.
//
// It runs on worker p's goroutine, either from claim (buffer full) or
// from the runtime's end-of-round Flush hook; between rounds every
// buffer is empty.
func (s *shard) flushClaims(p int) {
	c := &s.claims[p-1]
	k := len(c.ids)
	if k == 0 {
		return
	}
	idx := s.jcur[p-1] // p's row is single-writer; no synchronization needed
	if idx+k > s.jlen {
		// Unreachable while the submit-side MaxJobs guard holds: every id
		// is journaled at most once across all rows and incarnations, so a
		// row never outgrows MaxJobs. Fail loudly rather than overwrite a
		// neighbouring row.
		eventlog.CrashDump("dispatch_journal_overflow",
			"shard", s.id, "row", p, "claimed", k, "max_jobs", s.jlen)
		panic(fmt.Sprintf("dispatch: shard %d journal row %d overflow (%d claimed at %d, MaxJobs %d)",
			s.id, p, k, idx, s.jlen))
	}
	if err := s.backend.WriteAcked(s.jaddr(p, idx), c.ids, true); err != nil {
		eventlog.CrashDump("dispatch_journal_write_failed", "shard", s.id, "job", c.ids[0], "err", err)
		panic(fmt.Sprintf("dispatch: shard %d journal write for job %d failed (fenced or unreachable backend): %v", s.id, c.ids[0], err))
	}
	s.jcur[p-1] = idx + k
	s.journaled.Add(uint64(k))
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
