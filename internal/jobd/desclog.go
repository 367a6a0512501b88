package jobd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"atmostonce/internal/membackend"
	"atmostonce/internal/obs/eventlog"
	"atmostonce/internal/wire"
)

// The descriptor log.
//
// The dispatcher's own journal records job IDS — enough to dedupe, not
// enough to re-run. jobd adds the missing half: an append-only log of
// every admitted submission's full descriptor (tenant, task name,
// version, priority, deadline, payload), in ADMISSION ORDER, over the
// same membackend spec as the shard journals, its instance ".desclog".
// The core loop is the dispatcher's only submitter and submits only
// through range leases (dispatch.DoRunners), so a job's id IS its
// ordinal in this log, whatever the tick boundaries were, and replaying
// the log through DoRunners at open time reproduces the id stream:
// descriptors whose ids the shard journals recorded as performed resolve
// Recovered (payload not run again), and the rest — admitted but
// unperformed when the process died — RE-EXECUTE, exactly once.
//
// Layout (cells are int64 registers):
//
//	cell 0      log fingerprint (logMagic), opened by logFormat
//	cell 1..    records, back to back, then a zero cell
//	record    = header cell, then ceil(byteLen/8) body cells holding the
//	            record's bytes little-endian
//	header    = recTag<<56 | crc<<24 | byteLen
//
// crc is the CRC-32C of the record's bytes with the header's cell address
// as its initial value: a body at another address, or under another
// header, does not pass.
//
// The unit of commit is the TICK: stage encodes each admitted record into
// the cell buffer and touches no backend; commit sends the buffer and the
// zero cell that ends the log (when there is room for one) in ONE
// WriteAcked at the cursor. It returns BEFORE the dispatcher assigns the
// tick's ids and journals them, or a crash could lose a descriptor whose
// id the journal recorded: record-then-do, one level up. An acked write
// is durable once it returns but not atomic across pages or frames; a
// crash inside it leaves any subset of its cells, of a tick nobody was
// acked for and no id was journaled for. So a commit writes only over
// cells it has read back as zero (scrub): a torn commit's leftovers are
// zeroed, in an acked write of their own, before another commit lays a
// record over them, and a cell a torn commit lost reads zero, never a
// stale header. The scan reads through a membackend.Reader and at each
// header finds one of:
//
//  1. zero: the end of the log;
//  2. a malformed header (tag, length 0 or over wire.MaxFrame, body past
//     the last cell): refused as corrupt — cells are written whole, and
//     under a header only a header or zero is ever torn, so tearing cannot
//     make one;
//  3. a well-formed header over a body that fails its check: a write that
//     was never acked. The log ends here (event jobd_desclog_torn) and the
//     next commit overwrites it, so a torn tick reopens as a PREFIX of its
//     records, which run once like any logged, unperformed descriptor;
//  4. a body that passes its check and does not decode: refused as corrupt.
//
// A committed record lost from the tail would leave a journaled id with
// no descriptor; Server.replay refuses that store.
const (
	logMagic int64  = 0x616d6f2d64736333 // "amo-dsc3"
	recTag   uint64 = 0x6a               // 'j', the top byte of every record header

	// Earlier formats' fingerprints: refused untouched, never read.
	logMagicBlocks int64 = 0x616d6f2d64657363 // "amo-desc": ids drawn from per-shard blocks, record n is not job n
	logMagicPlain  int64 = 0x616d6f2d64736332 // "amo-dsc2": headers carry no check of their body
)

// logFormat is the log's store as membackend.Format opens it: the magic,
// then records from cell 1. Each earlier format has its reason.
var logFormat = membackend.Format{Stamp: logMagic, Body: [2]int{1, 2}, Holds: "records",
	Fix: "it is left untouched — start jobd stores fresh",
	Earlier: map[int64]string{
		logMagicBlocks: "was written before job ids became log ordinals: its jobs drew their ids from per-shard blocks of 64, so its n-th record is not job n and replaying it would dedupe the wrong jobs",
		logMagicPlain:  "was written before record headers carried a check of their body: a committed header of its can sit over body cells that never reached the store",
	}}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

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
// frame's payload, the same bytes — into d. The tenant and task strings
// are copies, memoised in names (nil for none); the payload is a copy too
// when own is set, and otherwise the bytes of b themselves.
func (d *desc) decode(b []byte, names *wire.Interner, own bool) error {
	dec := wire.Decoder{B: b}
	d.tenant = dec.StrIn(names)
	d.task = dec.StrIn(names)
	d.version = dec.U32()
	d.pri = int8(dec.U8())
	d.deadline = dec.I64()
	if own {
		d.payload = dec.Bytes()
	} else {
		d.payload = dec.BytesView()
	}
	return dec.Done()
}

// encodedLen is len(d.encode(nil)).
func (d *desc) encodedLen() int { return 21 + len(d.tenant) + len(d.task) + len(d.payload) }

// recCells is the log room of a record of n bytes: header plus payload.
func recCells(n int) int { return 1 + (n+7)/8 }

// descLog is the open log, owned by the server's core loop: a single
// writer, no internal locking.
//
// The zero descLog is the log of a server on a volatile backend
// (membackend.Volatile): no process could ever reopen it, so it is over
// no backend and keeps nothing — it always has room, stage and close do
// nothing, and commit, finding nothing staged, succeeds. These three
// b == nil checks are the only place jobd knows a log can be absent.
type descLog struct {
	b     membackend.Backend
	cur   int // next free cell: where the next commit's write starts
	clean int // cells [cur, clean) hold zeros: a fresh log's all, or what scrub read since a commit failed
	size  int
	err   error             // the first stage failure, reported (and cleared) by commit
	buf   []byte            // one record's encode scratch
	cells []int64           // the records staged since the last commit, as commit writes them
	ahead membackend.Reader // the scan's, then scrub's
}

// openDescLog reads (or starts) the log in the open store b, which it
// owns from here on and whose cell 0 held cell0 at open (its opener
// stamped a store it created with logMagic), and returns it along with
// every committed record, in order, as one slab of jobs (descriptor
// filled, the rest zero). name is the store as a refusal names it. A
// corrupt record is fatal: the log is the recovery oracle, and a hole in
// it would silently shift replayed descriptors onto wrong ids.
func openDescLog(b membackend.Backend, cell0 int64, name string) (*descLog, []job, error) {
	l := &descLog{b: b, cur: 1, size: b.Size()}
	fail := func(err error) (*descLog, []job, error) {
		b.Close()
		return nil, nil, err
	}
	if !b.Reopened() {
		l.clean = l.size // created by its opener, stamped and zero throughout
		return l, nil, nil
	}
	if err := logFormat.Open(b, cell0); err != nil {
		return fail(fmt.Errorf("jobd: descriptor log %q %w", name, err))
	}

	l.ahead.Seek(b, 1, l.size)
	var (
		recs  []job
		raw   []byte        // one record's bytes; decode copies out of it
		names wire.Interner // a log repeats a handful of tenant and task names
	)
	for l.cur < l.size {
		c, err := l.ahead.Next(1)
		if err != nil {
			return fail(fmt.Errorf("jobd: read descriptor log: %w", err))
		}
		hdr := uint64(c[0])
		if hdr == 0 {
			break
		}
		n := int(hdr & 0xffffff)
		if hdr>>56 != recTag || n == 0 || n > wire.MaxFrame || l.cur+recCells(n) > l.size {
			return fail(fmt.Errorf("jobd: corrupt descriptor log: record %d header %#x at cell %d", len(recs), hdr, l.cur))
		}
		raw = raw[:0]
		for left := recCells(n) - 1; left > 0; left -= len(c) {
			if c, err = l.ahead.Next(left); err != nil {
				return fail(fmt.Errorf("jobd: read descriptor log: %w", err))
			}
			for _, v := range c {
				raw = wire.AppendU64(raw, uint64(v))
			}
		}
		if sum := crc32.Update(uint32(l.cur), castagnoli, raw[:n]); sum != uint32(hdr>>24) {
			eventlog.Logger().Warn("jobd_desclog_torn", "record", len(recs), "cell", l.cur)
			break
		}
		recs = append(recs, job{})
		// raw is the next record's too: this one's payload owns its bytes.
		if err := recs[len(recs)-1].decode(raw[:n], &names, true); err != nil {
			return fail(fmt.Errorf("jobd: corrupt descriptor log: record %d at cell %d: %w", len(recs)-1, l.cur, err))
		}
		l.cur += recCells(n)
	}
	return l, recs, nil
}

// hasRoom reports whether a record of n serialized bytes still fits
// after ahead cells this tick has already promised to earlier records.
// The server checks it during admission, before consuming an id.
func (l *descLog) hasRoom(ahead, n int) bool {
	return l.b == nil || l.cur+ahead+recCells(n) <= l.size
}

// stage encodes d's record behind those already staged. The core loop
// stages only what hasRoom admitted; the re-check keeps the invariant
// local, and a failure is held for commit to report.
func (l *descLog) stage(d *desc) {
	if l.b == nil || l.err != nil {
		return
	}
	l.buf = append(d.encode(l.buf[:0]), 0, 0, 0, 0, 0, 0, 0) // zeros to fill the last cell
	n, at := len(l.buf)-7, l.cur+len(l.cells)
	if at+recCells(n) > l.size {
		l.err = errLogFull
		return
	}
	sum := crc32.Update(uint32(at), castagnoli, l.buf[:n])
	l.cells = append(l.cells, int64(recTag<<56|uint64(sum)<<24|uint64(n)))
	for i := 0; i < n; i += 8 {
		l.cells = append(l.cells, cellVal(l.buf[i:]))
	}
}

// commit is the tick's one acked write: durable before its ids exist. On
// failure the cursor stays and the next tick overwrites what was written.
func (l *descLog) commit() error {
	err, end := l.err, l.cur+len(l.cells)
	if err == nil && len(l.cells) > 0 {
		if end < l.size {
			l.cells = append(l.cells, 0)
		}
		if err = l.scrub(l.cur + len(l.cells)); err == nil {
			err = l.b.WriteAcked(l.cur, l.cells)
		}
	}
	if err == nil {
		l.cur = end
	} else {
		l.clean = l.cur // a failed write may have landed some of its cells
	}
	l.err, l.cells = nil, l.cells[:0]
	if cap(l.cells) > membackend.WindowCells {
		l.cells = nil // a burst's buffer is not an idle server's to keep
	}
	return err
}

// scrub makes sure cells [cur, end) hold zeros before a commit writes
// there. It reads ahead of what it read before, a window at a time, and
// zeroes a window holding what a commit that died torn left there in an
// acked write of its own. Behind an acked commit it finds zeros only.
func (l *descLog) scrub(end int) error {
	l.clean = max(l.clean, l.cur)
	for l.ahead.Seek(l.b, l.clean, l.size); l.clean < end; {
		c, err := l.ahead.Next(membackend.WindowCells)
		if err != nil {
			return err
		}
		if slices.ContainsFunc(c, func(v int64) bool { return v != 0 }) {
			clear(c)
			if err := l.b.WriteAcked(l.clean, c); err != nil {
				return err
			}
		}
		l.clean += len(c)
	}
	return nil
}

func (l *descLog) close() error {
	if l.b == nil {
		return nil
	}
	return l.b.Close()
}

// cellVal packs 8 little-endian bytes into a cell value; putCell unpacks.
func cellVal(b []byte) int64      { return int64(binary.LittleEndian.Uint64(b)) }
func putCell(dst []byte, v int64) { binary.LittleEndian.PutUint64(dst, uint64(v)) }
