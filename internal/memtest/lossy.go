package memtest

import (
	"slices"
	"sync"
)

// Lossy is the repository's one test store, a membackend.Backend of no
// registered kind. It loses what was not acked, as a host crash under a
// page cache does: every write reaches the cache, which the running
// process reads back; only WriteAcked, Sync and Close reach the disk,
// which is all Crash leaves. It counts what it serves, and in a Host it
// dies on cue.
type Lossy struct {
	mu          sync.Mutex
	cache, disk []int64
	reopened    bool
	n           Counts
	host        *Host
	// Hook, when set, sees each acked write before any cell lands; an
	// error fails the write whole, as a fenced store does.
	Hook func(addr int, vals []int64) error
}

// Counts is what a store served since it was made or last crashed.
type Counts struct {
	Reads, Writes int // cells
	Ranges, Syncs int // ReadRange and Sync calls
}

// NewLossy returns a fresh store of size zeroed cells.
func NewLossy(size int) *Lossy {
	return &Lossy{cache: make([]int64, size), disk: make([]int64, size)}
}

// Crash drops the cache: the store is what reached the disk, as a
// successor's Open finds it, Reopened from here on, counting from zero.
func (l *Lossy) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	copy(l.cache, l.disk)
	l.reopened, l.n = true, Counts{}
}

// Stamp opens the store as a backend kind's opener does: a store not
// Reopened is one the open creates, so stamp lands in cell 0 in one acked
// write (none for 0); a reopened one is not written. It returns what cell
// 0 held at open, 0 for a created store, and counts no read for it.
func (l *Lossy) Stamp(stamp int64) (int64, error) {
	l.mu.Lock()
	reopened, cell0 := l.reopened, l.cache[0]
	l.mu.Unlock()
	if reopened {
		return cell0, nil
	}
	if stamp == 0 {
		return 0, nil
	}
	return 0, l.WriteAcked(0, []int64{stamp})
}

func (l *Lossy) Counts() Counts {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

func (l *Lossy) Size() int { return len(l.cache) }

func (l *Lossy) Read(addr int) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n.Reads++
	return l.cache[addr]
}

func (l *Lossy) Write(addr int, v int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n.Writes++
	l.cache[addr] = v
}

func (l *Lossy) WriteAcked(addr int, vals []int64) error {
	if l.Hook != nil {
		if err := l.Hook(addr, vals); err != nil {
			return err
		}
	}
	if l.host != nil {
		return l.host.write(l, addr, vals)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.writeAcked(addr, vals, nil)
	return nil
}

// writeAcked applies an acked write, l.mu held: every cell to the cache,
// and to the disk those that tear keeps (nil: all).
func (l *Lossy) writeAcked(addr int, vals []int64, tear func(i, n int) bool) {
	l.n.Writes += len(vals)
	copy(l.cache[addr:], vals)
	for i, v := range vals {
		if tear == nil || tear(i, len(vals)) {
			l.disk[addr+i] = v
		}
	}
}

func (l *Lossy) ReadRange(addr int, dst []int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n.Reads += len(dst)
	l.n.Ranges++
	copy(dst, l.cache[addr:addr+len(dst)])
	return nil
}

func (l *Lossy) Reopened() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reopened
}

// Sync writes the whole cache to the disk, as an orderly Close does.
func (l *Lossy) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n.Syncs++
	copy(l.disk, l.cache)
	return nil
}

func (l *Lossy) Close() error { return l.Sync() }

// Host is a machine whose stores die together, at its at-th acked write
// counted from 1 across them, a fingerprint written inside a constructor
// as much as a journal flush. With a nil tear that write lands whole and
// is acked; otherwise only the cells tear keeps (i of n) land, and it is
// not. From that instant nothing the incarnation does reaches the stores
// a successor opens (Death), no payload starts (Run), and no acked write
// returns until the host is buried.
type Host struct {
	mu           sync.Mutex
	stores       []*Lossy
	at           int
	tear         func(i, n int) bool
	writes       []int
	died         bool
	dead, buried chan struct{}
	death        Death
}

// Phases are how far a host's fatal write gets, by the cells (i of n) its
// tear lands; it is acked only without one. So none is before the write,
// first, last, every other and all are torn, and acked is acked. A crash
// table runs a phase on writes of at least Cells cells: on one cell a torn
// write lands all.
var Phases = []struct {
	Name  string
	Tear  func(i, n int) bool
	Cells int
}{
	{"none", func(i, n int) bool { return false }, 1},
	{"first", func(i, n int) bool { return i == 0 }, 2},
	{"last", func(i, n int) bool { return i == n-1 }, 2},
	{"every other", func(i, n int) bool { return i%2 == 0 }, 2},
	{"all", func(i, n int) bool { return true }, 1},
	{"acked", nil, 1},
}

// Death is how a host died: in a write to its Store-th store at cell
// Addr, whose cells held Old and were written New, leaving Stores as a
// successor's Open finds them — new stores, in no host.
type Death struct {
	Store, Addr int
	Old, New    []int64
	Stores      []*Lossy
}

// NewHost joins stores into a host; at 0 never dies.
func NewHost(at int, tear func(i, n int) bool, stores ...*Lossy) *Host {
	h := &Host{stores: stores, at: at, tear: tear, dead: make(chan struct{}), buried: make(chan struct{})}
	for _, l := range stores {
		l.host = h
	}
	return h
}

// Writes returns the cells of each acked write up to the death, in order.
func (h *Host) Writes() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.writes)
}

// Dead is closed when the host dies.
func (h *Host) Dead() <-chan struct{} { return h.dead }

// Death waits for the host to die and says how it did.
func (h *Host) Death() Death { <-h.dead; return h.death }

// Bury lets a dead host's incarnation run out, so a test can close what
// the crash left: the acked writes it waits in return, landing nowhere.
func (h *Host) Bury() { close(h.buried) }

// Run runs payload f unless the host is dead. f runs under the host's
// lock, so it starts before the death or not at all.
func (h *Host) Run(f func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.died {
		f()
	}
}

func (h *Host) write(l *Lossy, addr int, vals []int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.died { // a call of the dead incarnation: it waits for the burial
		h.mu.Unlock()
		<-h.buried
		h.mu.Lock()
		return nil
	}
	h.writes = append(h.writes, len(vals))
	h.died = len(h.writes) == h.at
	var tear func(i, n int) bool
	l.mu.Lock()
	if h.died {
		h.death = Death{slices.Index(h.stores, l), addr, slices.Clone(l.cache[addr : addr+len(vals)]), slices.Clone(vals), nil}
		tear = h.tear
	}
	l.writeAcked(addr, vals, tear)
	l.mu.Unlock()
	if !h.died {
		return nil
	}
	for _, s := range h.stores {
		s.mu.Lock()
		h.death.Stores = append(h.death.Stores, &Lossy{cache: slices.Clone(s.disk), disk: slices.Clone(s.disk), reopened: true})
		s.mu.Unlock()
	}
	close(h.dead)
	if tear != nil { // died inside the write: no ack before the burial
		h.mu.Unlock()
		<-h.buried
		h.mu.Lock()
	}
	return nil
}
