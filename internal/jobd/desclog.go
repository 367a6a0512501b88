package jobd

import (
	"encoding/binary"
	"errors"
	"fmt"

	"atmostonce/internal/membackend"
	"atmostonce/internal/wire"
)

// The descriptor log.
//
// The dispatcher's own journal records job IDS — enough to dedupe, not
// enough to re-run. jobd adds the missing half: an append-only log of
// every admitted submission's full descriptor (tenant, task name,
// version, priority, deadline, payload), in ADMISSION ORDER, over the
// same membackend register file family as the shard journals (suffix
// ".desclog" on the server's backend spec). The core loop is the
// dispatcher's only submitter and submits only through range leases
// (dispatch.DoRunners), so a job's id IS its ordinal in this log — the
// n-th committed descriptor is job n, whatever the tick boundaries were —
// and replaying the log through DoRunners at open time reproduces the
// identical id stream: descriptors whose ids the shard journals recorded
// as performed resolve Recovered (deduped, payload not run again), and
// the rest — admitted but unperformed when the process died —
// RE-EXECUTE, exactly once.
//
// Layout (cells are int64 registers):
//
//	cell 0      log fingerprint (logMagic) — catches foreign files
//	cell 1..    records, back to back
//
// A record is one header cell followed by its payload cells:
//
//	header  = recMagic<<48 | byteLen     (never zero: recMagic != 0)
//	payload = ceil(byteLen/8) cells, record bytes packed little-endian
//
// The unit of commit is the TICK: the k records one tick of the core
// loop admitted (stage, k times; commit, once). Everything but the first
// record's header goes down as plain Writes — every payload cell, the
// headers of records 2..k, and a ZERO TERMINATOR in the cell after the
// last record — and then record 1's header is written through the
// backend's WriteAcked (a batch of one, not a journal record — the value
// is a length, not a job id): the commit point of the whole tick. The
// scan walks records until the first zero header cell, so a crash before
// that write leaves a torn tick the scan never sees and the next commit
// overwrites in place — truly, thanks to the terminator: a torn tick
// leaves payload bytes (client-supplied, so possibly header-shaped) and
// the valid headers of its records 2..k behind the cursor, and a shorter
// tick committed over it would otherwise end just short of them. It is
// written BEFORE the commit header, costs no room (the next header
// overwrites it) and is skipped only when the tick ends at the last
// cell. The commit must be durable BEFORE the dispatcher assigns the
// tick's ids and journals them, or a crash could lose a descriptor whose
// id the journal recorded — shifting every later replayed descriptor
// onto the wrong id and corrupting the dedupe. Record-then-do, one level
// up.
const (
	logMagic int64  = 0x616d6f2d64736332 // "amo-dsc2"
	recMagic uint64 = 0x6a44             // "jD", the per-record header tag

	// logMagicBlocks marks a log from before jobd submitted through range
	// leases only: its jobs drew ids from per-shard blocks of 64, so record
	// n is not job n. Refused, never reinterpreted.
	logMagicBlocks int64 = 0x616d6f2d64657363 // "amo-desc"
)

// errLogFull is the internal stage failure; the server rejects with
// codeCapacity BEFORE consuming an id, so a full log burns nothing.
var errLogFull = errors.New("jobd: descriptor log full")

// desc is one submission descriptor: what the log stores and replay re-submits.
type desc struct {
	tenant   string
	task     string
	version  uint32
	pri      int8
	deadline int64 // unix nanoseconds; 0 = none
	payload  []byte
}

// encode appends d's serialized form to b.
func (d *desc) encode(b []byte) []byte {
	b = wire.AppendStr(b, d.tenant)
	b = wire.AppendStr(b, d.task)
	b = wire.AppendU32(b, d.version)
	b = append(b, byte(d.pri))
	b = wire.AppendI64(b, d.deadline)
	b = wire.AppendBytes(b, d.payload)
	return b
}

// decode parses one serialized descriptor — a log record or a submit
// frame's payload, the same bytes — into d. Nothing in d aliases b;
// names (nil for none) memoises the tenant and task strings.
func (d *desc) decode(b []byte, names *wire.Interner) error {
	dec := wire.Decoder{B: b}
	d.tenant = dec.StrIn(names)
	d.task = dec.StrIn(names)
	d.version = dec.U32()
	d.pri = int8(dec.U8())
	d.deadline = dec.I64()
	d.payload = dec.Bytes()
	return dec.Done()
}

// encodedLen is len(d.encode(nil)).
func (d *desc) encodedLen() int { return 21 + len(d.tenant) + len(d.task) + len(d.payload) }

// recCells is the log room of a record of n bytes: header plus payload.
func recCells(n int) int { return 1 + (n+7)/8 }

// descLog is the open log. It is owned by the server's core loop — no
// internal locking; membackend cell writes are individually atomic, and
// the single-writer discipline is exactly the point of the core loop.
//
// The zero descLog is the log of a server on a volatile backend
// (membackend.Volatile): no process could ever reopen it, so it is over
// no backend and keeps nothing — it always has room, stage and close do
// nothing, and commit, finding nothing staged, succeeds. These three
// b == nil checks are the only place jobd knows a log can be absent.
type descLog struct {
	b     membackend.Backend
	cur   int // next free cell: where the next commit's header goes
	end   int // cur plus the cells staged since the last commit
	size  int
	first int64    // the staged tick's first header, withheld until commit
	err   error    // the first stage failure, reported (and cleared) by commit
	buf   []byte   // encode scratch, reused across records
	hdr   [1]int64 // header-cell scratch: a stack literal would escape through the interface
}

// openDescLog opens (or creates) the log behind spec with the given
// cell count and returns it along with every committed record, in
// order, as one slab of jobs (descriptor filled, the rest zero). A
// corrupt record header is fatal: the log is the recovery oracle, and a
// hole in it would silently shift replayed descriptors onto wrong ids.
func openDescLog(spec string, cells int) (*descLog, []job, error) {
	b, err := membackend.Open(spec, cells)
	if err != nil {
		return nil, nil, fmt.Errorf("jobd: open descriptor log: %w", err)
	}
	l := &descLog{b: b, cur: 1, end: 1, size: cells}
	fail := func(err error) (*descLog, []job, error) {
		b.Close()
		return nil, nil, err
	}

	switch fp := b.Read(0); fp {
	case logMagic:
		// Existing log; scan below.
	case 0:
		if err := l.writeCell(0, logMagic); err != nil {
			return fail(err)
		}
		return l, nil, nil
	case logMagicBlocks:
		return fail(fmt.Errorf("jobd: descriptor log %q was written before job ids became log ordinals: its jobs drew their ids from per-shard blocks of 64, so its n-th record is not job n and replaying it would dedupe the wrong jobs; it is left untouched — start jobd stores fresh", spec))
	default:
		return fail(fmt.Errorf("jobd: backend %q is not a descriptor log (fingerprint %#x)", spec, fp))
	}

	var (
		recs  []job
		raw   []byte        // one record's bytes; decode copies out of it
		names wire.Interner // a log repeats a handful of tenant and task names
	)
	for l.cur < l.size {
		hdr := uint64(b.Read(l.cur))
		if hdr == 0 {
			break // first uncommitted cell: end of log
		}
		// The tag, and bits 32-47 zero as stage writes them (a length is
		// at most wire.MaxFrame): junk there is damage, not a record of the
		// low 32 bits' length.
		if hdr>>32 != recMagic<<16 {
			return fail(fmt.Errorf("jobd: corrupt descriptor log: record %d header %#x at cell %d", len(recs), hdr, l.cur))
		}
		n := int(hdr & 0xffffffff)
		if n == 0 || n > wire.MaxFrame || l.cur+recCells(n) > l.size {
			return fail(fmt.Errorf("jobd: corrupt descriptor log: record %d length %d at cell %d", len(recs), n, l.cur))
		}
		raw = raw[:0]
		for i := 1; i < recCells(n); i++ {
			raw = wire.AppendU64(raw, uint64(b.Read(l.cur+i)))
		}
		recs = append(recs, job{})
		if err := recs[len(recs)-1].decode(raw[:n], &names); err != nil {
			return fail(fmt.Errorf("jobd: corrupt descriptor log: record %d at cell %d: %w", len(recs)-1, l.cur, err))
		}
		l.cur += recCells(n)
	}
	l.end = l.cur
	return l, recs, nil
}

// hasRoom reports whether a record of n serialized bytes still fits
// after ahead cells this tick has already promised to earlier records.
// The server checks it during admission, before consuming an id.
func (l *descLog) hasRoom(ahead, n int) bool {
	return l.b == nil || l.cur+ahead+recCells(n) <= l.size
}

// stage writes d's record behind those already staged, invisible until
// commit. The core loop stages only what hasRoom admitted; the re-check
// keeps the invariant local, and a failure is held for commit to report.
func (l *descLog) stage(d *desc) {
	if l.b == nil || l.err != nil {
		return
	}
	l.buf = d.encode(l.buf[:0])
	n := len(l.buf)
	if l.end+recCells(n) > l.size {
		l.err = errLogFull
		return
	}
	for i := 0; i < n; i += 8 {
		var cell [8]byte
		copy(cell[:], l.buf[i:])
		l.b.Write(l.end+1+i/8, cellVal(cell[:]))
	}
	if hdr := int64(recMagic<<48 | uint64(n)); l.end == l.cur {
		l.first = hdr
	} else {
		l.b.Write(l.end, hdr)
	}
	l.end += recCells(n)
}

// commit makes every staged record visible at once, or none: the
// terminator, then the first header, acked so the tick is durable before
// its ids exist. On failure the cursor stays and the next tick overwrites
// what was staged.
func (l *descLog) commit() error {
	err := l.err
	if err == nil && l.end > l.cur {
		if l.end < l.size {
			l.b.Write(l.end, 0)
		}
		err = l.writeCell(l.cur, l.first)
	}
	if err != nil {
		l.end, l.err = l.cur, nil
		return err
	}
	l.cur = l.end
	return nil
}

func (l *descLog) close() error {
	if l.b == nil {
		return nil
	}
	return l.b.Close()
}

// writeCell is one acked, non-journal write of a single cell.
func (l *descLog) writeCell(addr int, v int64) error {
	l.hdr[0] = v
	return l.b.WriteAcked(addr, l.hdr[:], false)
}

// cellVal packs 8 little-endian bytes into a cell value; putCell unpacks.
func cellVal(b []byte) int64      { return int64(binary.LittleEndian.Uint64(b)) }
func putCell(dst []byte, v int64) { binary.LittleEndian.PutUint64(dst, uint64(v)) }
