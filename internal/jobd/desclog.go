package jobd

import (
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
// ".desclog" on the server's backend spec). Because the core loop is
// the dispatcher's only submitter and id assignment is a deterministic
// function of the submission sequence, replaying this log through Do()
// at open time reproduces the identical id stream: descriptors whose
// ids the shard journals recorded as performed resolve Recovered
// (deduped, payload not run again), and the rest — admitted but
// unperformed when the process died — RE-EXECUTE, exactly once.
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
// Append writes the payload cells FIRST and the header cell LAST — the
// header is the commit point. The scan walks records until the first
// zero header cell, so a crash mid-append leaves a torn tail that the
// scan never sees and the next append overwrites in place. The header
// cell is written through the backend's WriteAcked (a batch of one, not
// a journal record — the value is a length, not a job id): the
// descriptor must be durable BEFORE the dispatcher assigns its id and
// journals it, or a crash could lose a descriptor whose id the journal
// recorded — shifting every later replayed descriptor onto the wrong
// id and corrupting the dedupe. Record-then-do, one level up.
const (
	logMagic int64  = 0x616d6f2d64657363 // "amo-desc"
	recMagic uint64 = 0x6a44             // "jD", the per-record header tag
)

// errLogFull is the internal append failure; the server maps it to a
// codeCapacity rejection BEFORE consuming an id, so a full log burns
// nothing.
var errLogFull = errors.New("jobd: descriptor log full")

// desc is one submission descriptor — the unit the log stores and the
// replay re-submits.
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

// decodeDesc parses one serialized descriptor — a log record or a
// submit frame's payload, the same bytes. Nothing in the result aliases
// b; names (nil for none) memoises the tenant and task strings.
func decodeDesc(b []byte, names *wire.Interner) (desc, error) {
	dec := wire.Decoder{B: b}
	d := desc{
		tenant:  dec.StrIn(names),
		task:    dec.StrIn(names),
		version: dec.U32(),
		pri:     int8(dec.U8()),
	}
	d.deadline = dec.I64()
	d.payload = dec.Bytes()
	if err := dec.Done(); err != nil {
		return desc{}, err
	}
	return d, nil
}

// descLog is the open log. It is owned by the server's core loop — no
// internal locking; membackend cell writes are individually atomic, and
// the single-writer discipline is exactly the point of the core loop.
type descLog struct {
	b    membackend.Backend
	cur  int // next free cell
	size int
	buf  []byte   // encode scratch, reused across appends
	hdr  [1]int64 // header-cell scratch: a stack literal would escape through the interface
}

// openDescLog opens (or creates) the log behind spec with the given
// cell count and returns it along with every committed record, in
// order. A corrupt record header is fatal: the log is the recovery
// oracle, and a hole in it would silently shift replayed descriptors
// onto wrong ids.
func openDescLog(spec string, cells int) (*descLog, []desc, error) {
	b, err := membackend.Open(spec, cells)
	if err != nil {
		return nil, nil, fmt.Errorf("jobd: open descriptor log: %w", err)
	}
	l := &descLog{b: b, cur: 1, size: cells}

	switch fp := b.Read(0); fp {
	case logMagic:
		// Existing log; scan below.
	case 0:
		if err := l.writeCell(0, logMagic); err != nil {
			b.Close()
			return nil, nil, err
		}
		return l, nil, nil
	default:
		b.Close()
		return nil, nil, fmt.Errorf("jobd: backend %q is not a descriptor log (fingerprint %#x)", spec, fp)
	}

	var recs []desc
	for l.cur < l.size {
		hdr := uint64(b.Read(l.cur))
		if hdr == 0 {
			break // first uncommitted cell: end of log
		}
		if hdr>>48 != recMagic {
			b.Close()
			return nil, nil, fmt.Errorf("jobd: corrupt descriptor log: record %d header %#x at cell %d", len(recs), hdr, l.cur)
		}
		n := int(hdr & 0xffffffff)
		nCells := (n + 7) / 8
		if n == 0 || n > wire.MaxFrame || l.cur+1+nCells > l.size {
			b.Close()
			return nil, nil, fmt.Errorf("jobd: corrupt descriptor log: record %d length %d at cell %d", len(recs), n, l.cur)
		}
		raw := make([]byte, nCells*8)
		for i := 0; i < nCells; i++ {
			putCell(raw[i*8:], b.Read(l.cur+1+i))
		}
		d, err := decodeDesc(raw[:n], nil)
		if err != nil {
			b.Close()
			return nil, nil, fmt.Errorf("jobd: corrupt descriptor log: record %d at cell %d: %w", len(recs), l.cur, err)
		}
		recs = append(recs, d)
		l.cur += 1 + nCells
	}
	return l, recs, nil
}

// hasRoom reports whether a descriptor serializing to n bytes fits.
// The server checks it during admission, before consuming an id.
func (l *descLog) hasRoom(n int) bool {
	return l.cur+1+(n+7)/8 <= l.size
}

// append commits d to the log. The caller (the core loop) must only
// call it after hasRoom, but a race-free re-check keeps the invariant
// local.
func (l *descLog) append(d *desc) error {
	l.buf = d.encode(l.buf[:0])
	n := len(l.buf)
	nCells := (n + 7) / 8
	if l.cur+1+nCells > l.size {
		return errLogFull
	}
	// Payload cells first...
	for i := 0; i < nCells; i++ {
		var cell [8]byte
		copy(cell[:], l.buf[i*8:])
		l.b.Write(l.cur+1+i, cellVal(cell[:]))
	}
	// ...header last: the commit point, acked so the record is durable
	// before the id exists.
	if err := l.writeCell(l.cur, int64(recMagic<<48|uint64(n))); err != nil {
		return err
	}
	l.cur += 1 + nCells
	return nil
}

func (l *descLog) close() error { return l.b.Close() }

// writeCell is one acked, non-journal write of a single cell.
func (l *descLog) writeCell(addr int, v int64) error {
	l.hdr[0] = v
	return l.b.WriteAcked(addr, l.hdr[:], false)
}

// cellVal packs 8 little-endian bytes into a register value.
func cellVal(b []byte) int64 {
	return int64(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56)
}

// putCell unpacks a register value into 8 little-endian bytes.
func putCell(dst []byte, v int64) {
	u := uint64(v)
	dst[0] = byte(u)
	dst[1] = byte(u >> 8)
	dst[2] = byte(u >> 16)
	dst[3] = byte(u >> 24)
	dst[4] = byte(u >> 32)
	dst[5] = byte(u >> 40)
	dst[6] = byte(u >> 48)
	dst[7] = byte(u >> 56)
}
