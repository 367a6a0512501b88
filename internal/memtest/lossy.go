package memtest

import "sync"

// Lossy is a store that loses what was not acked: the model of a host
// crash under a page cache, or of a connection dropped with frames in
// flight. Every write reaches the cache, which is what the running
// process reads back; only WriteAcked (and Sync and Close) reach the
// disk, which is all that Crash leaves. It has the method set of
// membackend.Backend and no registered kind: a test hands it to the code
// under test itself.
type Lossy struct {
	mu          sync.Mutex
	cache, disk []int64
	reopened    bool
	// Keep, when set, tears the acked writes that follow: of each one's
	// cells only those at addresses Keep accepts reach the disk — an
	// ascending prefix, all but one page, none. The write still succeeds;
	// the test crashes the store before anything depends on it.
	Keep func(addr int) bool
}

// NewLossy returns a fresh store of size zeroed cells.
func NewLossy(size int) *Lossy {
	return &Lossy{cache: make([]int64, size), disk: make([]int64, size)}
}

// Crash drops the cache: the store is what reached the disk, as a
// successor's Open would find it (Reopened reports true from here on).
func (l *Lossy) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	copy(l.cache, l.disk)
	l.reopened, l.Keep = true, nil
}

func (l *Lossy) Size() int { return len(l.cache) }

func (l *Lossy) Read(addr int) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cache[addr]
}

func (l *Lossy) Write(addr int, v int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cache[addr] = v
}

func (l *Lossy) WriteAcked(addr int, vals []int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	copy(l.cache[addr:], vals)
	for i, v := range vals {
		if l.Keep == nil || l.Keep(addr+i) {
			l.disk[addr+i] = v
		}
	}
	return nil
}

func (l *Lossy) ReadRange(addr int, dst []int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
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
	copy(l.disk, l.cache)
	return nil
}

func (l *Lossy) Close() error { return l.Sync() }
