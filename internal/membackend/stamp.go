package membackend

import (
	"fmt"
	"slices"
)

// Format is a durable format as its store holds it: Stamp in cell 0,
// acked before any other cell of it is written, then Body, the cells it
// writes first. The dispatcher's journal (its rows) and jobd's descriptor
// log (its first record) are the two, and Open is the one rule both open
// a store by.
type Format struct {
	Stamp   int64            // cell 0 of every store of the format
	Body    [2]int           // cells [Body[0], Body[1]), written first once Stamp is acked
	Holds   string           // what the body holds, as a refusal says it
	Earlier map[int64]string // earlier formats' stamps, each with why a store of one is refused
	Fix     string           // what every refusal ends with
}

// Open takes b, whose cell 0 held cell0 when OpenEach opened it, as a
// store of format f:
//   - cell 0 holds f.Stamp: it opens, and the caller reads back what it
//     holds;
//   - cell 0 holds 0: its creator died before the stamp was acked.
//     Nothing is written before the stamp, so it opens fresh, stamped
//     here, acked, only if its body reads zero;
//   - an earlier format's stamp is refused with its reason;
//   - anything else is another store's, and is refused.
//
// A refused store is left as it was. An error says what is wrong with
// the store, for the caller to put its name in front of. A store the
// opener created needs no Open: the opener stamped it, and it holds
// nothing to read (Open would find its body zero and stamp it again).
func (f Format) Open(b Backend, cell0 int64) error {
	switch why := f.Earlier[cell0]; {
	case cell0 == f.Stamp:
		return nil
	case why != "":
		return fmt.Errorf("%s; %s", why, f.Fix)
	case cell0 != 0:
		return fmt.Errorf("holds fingerprint %#x, want %#x; %s", cell0, f.Stamp, f.Fix)
	}
	var r Reader
	for r.Seek(b, f.Body[0], min(f.Body[1], b.Size())); ; {
		c, err := r.Next(WindowCells)
		if err != nil {
			return fmt.Errorf("could not be read: %w", err)
		}
		if len(c) == 0 {
			break
		}
		if slices.ContainsFunc(c, func(v int64) bool { return v != 0 }) {
			return fmt.Errorf("holds %s but no fingerprint (fingerprint 0x0, want %#x); %s", f.Holds, f.Stamp, f.Fix)
		}
	}
	// Acked: the body need share no page with cell 0, so no later write
	// would carry the stamp to the store.
	if err := b.WriteAcked(0, []int64{f.Stamp}); err != nil {
		return fmt.Errorf("could not be stamped: %w", err)
	}
	return nil
}

// WindowCells is the most cells a Reader reads at once: enough that a
// remote row or log costs a handful of round trips, few enough not to
// drag megabytes for a row of a million ids.
const WindowCells = 4096

// Reader reads a range of a store's cells in order, a window of up to
// WindowCells at a time, each in one ReadRange. The durable formats read
// back what a predecessor wrote through it: the journal's rows, the
// descriptor log and the cells a commit scrubs, and a fresh store's body.
type Reader struct {
	b       Backend
	at, end int     // the next cell Next returns; the end of the range
	held    []int64 // the window's cells from at on
	win     []int64 // the window, kept across Seeks
}

// Seek points r at cells [at, end) of b, dropping what it held.
func (r *Reader) Seek(b Backend, at, end int) { r.b, r.at, r.end, r.held = b, at, end, nil }

// Next returns the next cells, at most n and at least one — none at the
// end of the range — and moves past them. It reads the next window when
// it holds none of them. The cells are r's until its next call.
func (r *Reader) Next(n int) ([]int64, error) {
	if len(r.held) == 0 && r.at < r.end {
		w := min(WindowCells, r.end-r.at)
		r.win = slices.Grow(r.win[:0], w)[:w]
		if err := r.b.ReadRange(r.at, r.win); err != nil {
			return nil, err
		}
		r.held = r.win
	}
	c := r.held[:min(n, len(r.held))]
	r.held, r.at = r.held[len(c):], r.at+len(c)
	return c, nil
}
