package dispatch

import (
	"fmt"
	"hash/fnv"
	"time"

	"atmostonce/internal/membackend"
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
// only by journal/flushClaims, the recovery scan, Sync and Close.
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
const layoutVersion = "amo-dispatch-v3"

// layoutChange is what every refusal of a store this layout cannot own
// says: a store that does not match is never reinterpreted.
const layoutChange = "layout " + layoutVersion + " keeps only the fingerprint and the journal rows in the backend; a store written under an earlier layout also holds the round registers after the journal and is not reinterpreted — start durable stores fresh"

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
// the journal rows are scanned for performed job ids (returned to the
// caller) and the per-worker append cursors are rebuilt.
func (s *shard) openDurable(cfg *Config) (recovered []uint64, err error) {
	m, maxBatch, maxJobs := cfg.Workers, cfg.MaxBatch, cfg.MaxJobs
	size := jmetaCells + m*maxJobs
	b, err := cfg.NewMem(s.id, size)
	if err != nil {
		// The commonest way to get here with a store that exists is a size
		// the backend refuses, so the refusal names the layout.
		return nil, fmt.Errorf("dispatch: shard %d backend (%d cells): %w; %s", s.id, size, err, layoutChange)
	}
	if b.Size() < size {
		b.Close()
		return nil, fmt.Errorf("dispatch: shard %d backend holds %d cells, need %d", s.id, b.Size(), size)
	}
	s.backend = b
	s.durable = true
	s.jlen = maxJobs
	s.jcur = make([]int, m)
	s.ackedW, _ = b.(membackend.AckedWriter)
	s.journalW, _ = b.(membackend.JournalWriter)
	s.batchJournalW, _ = b.(membackend.BatchJournalWriter)
	s.jbatch = cfg.JournalBatch
	if s.jbatch > 1 {
		// Claim buffers are sized once; the round path appends into them
		// without ever growing (flush fires at jbatch).
		s.claims = make([]workerClaims, m)
		for p := range s.claims {
			s.claims[p].ids = make([]uint64, 0, s.jbatch)
			s.claims[p].locals = make([]int, 0, s.jbatch)
		}
	}

	fp := fingerprint(s.id, cfg.Shards, m, maxBatch, maxJobs)
	if r, ok := b.(membackend.Reopener); ok && r.Reopened() {
		if got := b.Read(0); got != fp {
			b.Close()
			eventlog.Logger().Error("dispatch_fingerprint_mismatch",
				"shard", s.id, "got", fmt.Sprintf("%#x", got), "want", fmt.Sprintf("%#x", fp))
			return nil, fmt.Errorf("dispatch: shard %d register file was written by a different configuration or layout (fingerprint %#x, want %#x); use the original Shards/Workers/MaxBatch/MaxJobs or start from a fresh file; %s",
				s.id, got, fp, layoutChange)
		}
		scan0 := time.Now()
		eventlog.Logger().Info("dispatch_recovery_scan_begin", "shard", s.id, "workers", m)
		for p := 1; p <= m; p++ {
			n, err := s.scanJournalRow(p, &recovered)
			if err != nil {
				b.Close()
				eventlog.Logger().Error("dispatch_recovery_scan_failed", "shard", s.id, "row", p, "err", err)
				return nil, fmt.Errorf("dispatch: shard %d journal scan: %w", s.id, err)
			}
			s.jcur[p-1] = n
		}
		if s.d.recoveryHist != nil {
			s.d.recoveryHist.Observe(uint64(time.Since(scan0)))
		}
		eventlog.Logger().Info("dispatch_recovery_scan_end",
			"shard", s.id, "recovered", len(recovered), "dur", time.Since(scan0))
	} else {
		b.Write(0, fp)
	}
	return recovered, nil
}

// scanChunk sizes the journal-scan range reads: big enough that a
// remote row costs a handful of round trips, small enough not to drag
// megabytes for a nearly-empty row.
const scanChunk = 4096

// scanJournalRow reads worker p's journal row up to its first zero,
// appending the recovered ids. Over a RangeReader backend (remote) it
// pulls chunks instead of cells — the difference between O(row) network
// round trips and O(row/scanChunk).
func (s *shard) scanJournalRow(p int, recovered *[]uint64) (n int, err error) {
	rr, batched := s.backend.(membackend.RangeReader)
	var chunk []int64
	if batched {
		chunk = make([]int64, scanChunk)
	}
	for n < s.jlen {
		if !batched {
			id := s.backend.Read(s.jaddr(p, n))
			if id == 0 {
				return n, nil
			}
			*recovered = append(*recovered, uint64(id))
			n++
			continue
		}
		m := s.jlen - n
		if m > scanChunk {
			m = scanChunk
		}
		if err := rr.ReadRange(s.jaddr(p, n), chunk[:m]); err != nil {
			return n, err
		}
		for _, id := range chunk[:m] {
			if id == 0 {
				return n, nil
			}
			*recovered = append(*recovered, uint64(id))
			n++
		}
	}
	return n, nil
}

// journal durably records that worker p performed the job in batch slot
// local-1, before the payload runs. Crash ordering: record-then-do. A
// process killed between the two re-performs nothing on recovery — the
// at-most-once guarantee is absolute — at the price of counting the job
// performed even though its payload never ran, the same way the paper's
// crashes cost effectiveness, never safety (Theorem 2.1 makes that
// trade unavoidable). Cooperative crashes (injected via CrashPlan, or
// any stop at action granularity, the paper's model §2.1) sit outside
// the record/do window, so they lose nothing.
//
// Over a backend with an AckedWriter (the networked register service),
// the record must be ACKNOWLEDGED before the payload runs: a pipelined
// write still sitting in a buffer when the process dies would let the
// successor re-run a job whose payload already executed — a duplicate.
// A failed acked write (connection dead after retries, or fenced by a
// successor's lease) panics: this worker's process has lost the right
// to execute payloads, and dying before the payload is exactly the
// crash the recovery protocol is built to absorb.
func (s *shard) journal(p int, id uint64) {
	idx := s.jcur[p-1] // p's row is single-writer; no synchronization needed
	if idx >= s.jlen {
		// Unreachable while the Submit-side MaxJobs guard holds: every id
		// is journaled at most once across all rows and incarnations, so a
		// row never outgrows MaxJobs. Fail loudly rather than overwrite a
		// neighbouring row.
		eventlog.CrashDump("dispatch_journal_overflow", "shard", s.id, "row", p, "max_jobs", s.jlen)
		panic(fmt.Sprintf("dispatch: shard %d journal row %d overflow (MaxJobs %d)", s.id, p, s.jlen))
	}
	switch {
	case s.journalW != nil:
		// The journal-aware capability carries the job id on the wire,
		// so a remote register server witnesses the write in its own
		// tracer — the stitching anchor for this job's cross-process
		// timeline.
		if err := s.journalW.JournalWrite(s.jaddr(p, idx), id); err != nil {
			eventlog.CrashDump("dispatch_journal_write_failed", "shard", s.id, "job", id, "err", err)
			panic(fmt.Sprintf("dispatch: shard %d journal write for job %d failed (fenced or unreachable backend): %v", s.id, id, err))
		}
	case s.ackedW != nil:
		if err := s.ackedW.WriteAcked(s.jaddr(p, idx), int64(id)); err != nil {
			eventlog.CrashDump("dispatch_journal_write_failed", "shard", s.id, "job", id, "err", err)
			panic(fmt.Sprintf("dispatch: shard %d journal write for job %d failed (fenced or unreachable backend): %v", s.id, id, err))
		}
	default:
		s.backend.Write(s.jaddr(p, idx), int64(id))
	}
	s.jcur[p-1] = idx + 1
	s.journaled.Add(1)
}

// workerClaims is one worker's open group-commit buffer: jobs marked
// done in the round whose journal records and payloads are deferred to
// the next flush. ids and locals move in lockstep; both are sized to
// Config.JournalBatch at construction and never grow.
type workerClaims struct {
	ids    []uint64 // dispatcher-wide ids, journaled in one vectored write
	locals []int    // matching batch slots, payloads run after the write
}

// claim appends one job to worker p's group-commit buffer, flushing when
// the buffer reaches JournalBatch. Called only from exec on p's own
// goroutine.
func (s *shard) claim(p, local int) {
	c := &s.claims[p-1]
	c.ids = append(c.ids, s.batch[local-1].id)
	c.locals = append(c.locals, local)
	if len(c.ids) >= s.jbatch {
		s.flushClaims(p)
	}
}

// flushClaims is the group commit: journal every claimed id of worker p
// in ONE vectored acked write (the batch capability when the backend has
// one, per-cell acked writes otherwise), then run the deferred payloads
// in claim order. Record-then-do holds for the whole batch — no payload
// runs before the batch's journal write returns — so a crash anywhere
// in the window costs at most JournalBatch payloads per worker
// (journaled, counted performed by recovery, never run: effectiveness
// loss), and never a duplicate. It runs on worker p's goroutine, either
// from claim (buffer full) or from the runtime's end-of-round Flush
// hook; between rounds every buffer is empty.
func (s *shard) flushClaims(p int) {
	c := &s.claims[p-1]
	k := len(c.ids)
	if k == 0 {
		return
	}
	idx := s.jcur[p-1] // p's row is single-writer; no synchronization needed
	if idx+k > s.jlen {
		eventlog.CrashDump("dispatch_journal_overflow",
			"shard", s.id, "row", p, "claimed", k, "max_jobs", s.jlen)
		panic(fmt.Sprintf("dispatch: shard %d journal row %d overflow (%d claimed at %d, MaxJobs %d)",
			s.id, p, k, idx, s.jlen))
	}
	addr := s.jaddr(p, idx)
	switch {
	case s.batchJournalW != nil:
		if err := s.batchJournalW.JournalWriteBatch(addr, c.ids); err != nil {
			s.journalFail(c.ids[0], err)
		}
	case s.journalW != nil:
		for i, id := range c.ids {
			if err := s.journalW.JournalWrite(addr+i, id); err != nil {
				s.journalFail(id, err)
			}
		}
	case s.ackedW != nil:
		for i, id := range c.ids {
			if err := s.ackedW.WriteAcked(addr+i, int64(id)); err != nil {
				s.journalFail(id, err)
			}
		}
	default:
		for i, id := range c.ids {
			s.backend.Write(addr+i, int64(id))
		}
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

// journalFail is the shared death path of a failed journal write: the
// backend is fenced or unreachable, so this process has lost the right
// to run payloads — dying before them is exactly the crash recovery
// absorbs.
func (s *shard) journalFail(id uint64, err error) {
	eventlog.CrashDump("dispatch_journal_write_failed", "shard", s.id, "job", id, "err", err)
	panic(fmt.Sprintf("dispatch: shard %d journal write for job %d failed (fenced or unreachable backend): %v", s.id, id, err))
}
