// Package membackend is the register-backend registry: every
// implementation of shmem.Mem with a lifecycle, behind one factory. The
// paper's algorithms only ever see an array of atomic read/write
// registers (§2.1) and reach them through the shmem.Mem interface, so a
// register file is a replaceable subsystem. What the streaming
// dispatcher keeps in one is its durable journal — the state a successor
// reads; the KKβ round registers themselves stay in conc.Runtime's
// process memory. This package makes the replacement explicit:
//
//   - "atomic"  — the in-process sync/atomic backend (shmem.AtomicMem),
//     the default for purely in-memory dispatchers.
//   - "mmap:PATH" — a durable register file: the cells live in a
//     memory-mapped file with a versioned header, so at-most-once state
//     survives process death and a dispatcher can recover it
//     (internal/dispatch's recovery scan; DESIGN.md §7).
//   - "counting:SPEC" — an instrumented wrapper around any other
//     backend, counting reads and writes outside the simulator.
//   - "net:HOST:PORT[/NAMESPACE]" — a remote register service: the cells
//     live in an amo-regd server process and are accessed over a binary
//     TCP protocol with single-writer lease arbitration. Implemented in
//     internal/netmem, which registers the kind from its init; import it
//     (the public atmostonce package does) before opening net specs.
//
// Backends are selected by spec string through Open, e.g.
// Open("mmap:/var/lib/amo/shard.reg", size). Additional backends
// register themselves with Register.
//
// See DESIGN.md §7 for the interface contract, the mmap file layout and
// the multi-process atomicity caveats.
package membackend

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"atmostonce/internal/obs/eventlog"
	"atmostonce/internal/shmem"
)

// Backend is the whole contract between a register file and its users:
// the paper's read/write registers (shmem.Mem) plus the five methods a
// store with a lifecycle needs. Read and Write must be atomic per cell
// and safe for concurrent use (the contract the conformance suite
// internal/memtest enforces). There are no optional capabilities and no
// compare-and-swap: the paper's model is read/write only (§2.1), and a
// CAS resent after a lost ack is not idempotent.
type Backend interface {
	shmem.Mem
	// WriteAcked stores vals into the len(vals) contiguous cells
	// starting at addr and does not return until every one of them has
	// reached the backing store's ordering point: the cell itself for
	// the in-process backends, the msync of the touched pages for mmap,
	// the server's reply for a remote one. A batch of one is the scalar
	// case. Record-then-do is built on it — the dispatcher's journal and
	// jobd's descriptor log are only safe when the record is known to
	// survive the writer's death before the work it names begins.
	//
	// The write must be all-or-nothing with respect to admission
	// control: a backend that can reject a write (a fenced remote
	// writer) must reject the entire batch without applying any cell of
	// it. A crash mid-batch is weaker: any subset of the cells may have
	// landed, in no order. Both callers tolerate that — a journal word
	// that landed only records claims whose payloads never ran, and the
	// descriptor log checksums every commit.
	WriteAcked(addr int, vals []int64) error
	// ReadRange reads the len(dst) cells starting at addr in one
	// operation: the recovery scans pull whole rows through it instead
	// of paying one round trip per cell.
	ReadRange(addr int, dst []int64) error
	// Reopened reports whether Open found existing register state (as
	// opposed to creating a fresh, zeroed store). The dispatcher's crash
	// recovery keys off this; volatile backends report false.
	Reopened() bool
	// Sync flushes outstanding writes to the backing store, if any.
	Sync() error
	// Close releases the backend's resources. Using the backend after
	// Close is undefined. Close is idempotent.
	Close() error
}

// OpenFunc builds a backend with size cells from the spec's argument
// (the part after "kind:", possibly empty).
type OpenFunc func(arg string, size int) (Backend, error)

var (
	regMu     sync.RWMutex
	registry  = map[string]OpenFunc{}
	suffixers = map[string]func(arg, suffix string) string{}
)

// Register adds a backend kind to the registry. It panics on a
// duplicate kind; call it from an init function.
func Register(kind string, open OpenFunc) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[kind]; dup {
		panic("membackend: duplicate backend kind " + kind)
	}
	registry[kind] = open
}

// RegisterSuffixer teaches WithSuffix how a kind's spec argument takes
// an instance suffix, so each backend owns its own spec grammar (the
// net backend's host/namespace/option syntax lives in internal/netmem,
// not here). Kinds without a suffixer pass through WithSuffix
// unchanged.
func RegisterSuffixer(kind string, fn func(arg, suffix string) string) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := suffixers[kind]; dup {
		panic("membackend: duplicate suffixer for kind " + kind)
	}
	suffixers[kind] = fn
}

// Kinds returns the registered backend kinds, sorted.
func Kinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Open builds the backend a spec names, with size cells. A spec is
// "kind" or "kind:argument"; wrapper kinds (counting) take a nested
// spec as their argument. An empty spec means "atomic". Malformed specs
// — surrounding whitespace, an empty kind, a dangling ":" — are
// rejected with errors that say how to fix them, and an unknown kind's
// error suggests the nearest registered kind.
func Open(spec string, size int) (Backend, error) {
	if size <= 0 {
		return nil, fmt.Errorf("membackend: need a positive size, got %d", size)
	}
	kind, arg, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	regMu.RLock()
	open, ok := registry[kind]
	regMu.RUnlock()
	if !ok {
		hint := ""
		if near := nearestKind(kind); near != "" {
			hint = fmt.Sprintf(" — did you mean %q?", near)
		}
		return nil, fmt.Errorf("membackend: unknown backend %q in spec %q%s (have %s)",
			kind, spec, hint, strings.Join(Kinds(), ", "))
	}
	b, err := open(arg, size)
	if err != nil {
		eventlog.Logger().Warn("backend_open_failed", "kind", kind, "spec", spec, "size", size, "err", err)
		return b, err
	}
	obsOpened(kind)
	eventlog.Logger().Debug("backend_open", "kind", kind, "size", size, "reopened", b.Reopened())
	return b, nil
}

// Volatile reports whether nothing written through a backend opened from
// spec can be seen by a later Open: true for "" and "atomic" only. It is
// the one place that decides whether record-then-do has a successor to
// record for — a caller that gets true keeps no journal and no log
// instead of writing one nothing can read. Wrappers and remote kinds are
// not volatile whatever they end in: "counting:" exists to witness the
// traffic the wrapped kind would carry, so that traffic is kept, and a
// "net:" namespace outlives its client whatever the server stores it in.
// It is asked of the spec, not of an open backend, because the answer
// decides whether to Open (and size, and zero) a store at all. A spec
// Open would reject is not volatile; Open is where it gets its error.
func Volatile(spec string) bool { return spec == "" || spec == "atomic" }

// parseSpec splits a spec into kind and argument, rejecting the
// malformed shapes that would otherwise fail deep inside a backend (or
// worse, be silently accepted): surrounding whitespace, an empty kind
// (":arg"), and a dangling ":" with nothing after it.
func parseSpec(spec string) (kind, arg string, err error) {
	if spec == "" {
		return "atomic", "", nil
	}
	if strings.TrimSpace(spec) != spec {
		return "", "", fmt.Errorf("membackend: spec %q has surrounding whitespace; remove it", spec)
	}
	i := strings.IndexByte(spec, ':')
	if i < 0 {
		return spec, "", nil
	}
	kind, arg = spec[:i], spec[i+1:]
	if kind == "" {
		return "", "", fmt.Errorf("membackend: spec %q has an empty backend kind before ':' (want e.g. %q)", spec, "mmap:/path/regs")
	}
	if arg == "" {
		return "", "", fmt.Errorf("membackend: spec %q has a dangling ':' with no argument; write just %q, or give an argument (e.g. %q)", spec, kind, kind+":ARG")
	}
	return kind, arg, nil
}

// nearestKind returns the registered kind closest to the misspelled one
// (edit distance at most 2), or "" when nothing is plausibly close.
func nearestKind(kind string) string {
	best, bestDist := "", 3
	for _, k := range Kinds() {
		if d := editDistance(kind, k); d < bestDist {
			best, bestDist = k, d
		}
	}
	return best
}

// editDistance is plain Levenshtein distance; specs and kind names are
// tiny, so the quadratic table is free.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// ShardSpec rewrites a spec for one shard of a sharded deployment:
// instance-bearing kinds (mmap paths, net namespaces) get a ".shard<i>"
// suffix so every shard owns its own register set; volatile kinds pass
// through unchanged. Wrappers rewrite their inner spec.
func ShardSpec(spec string, shard int) string {
	return WithSuffix(spec, fmt.Sprintf(".shard%d", shard))
}

// WithSuffix appends suffix to the instance name of a spec's terminal
// kind — the file path for mmap, the namespace for net (before any
// "?option" tail) — recursing through wrappers (counting); kinds
// without an instance name pass through unchanged, as do specs Open
// would reject. Callers that need several independent instances of one
// spec (shards, bench sweep points) use it to derive per-instance
// names.
func WithSuffix(spec, suffix string) string {
	kind, arg, err := parseSpec(spec)
	if err != nil {
		return spec
	}
	switch kind {
	case "mmap":
		return kind + ":" + arg + suffix
	case "counting":
		return kind + ":" + WithSuffix(arg, suffix)
	}
	regMu.RLock()
	fn := suffixers[kind]
	regMu.RUnlock()
	if fn != nil {
		return kind + ":" + fn(arg, suffix)
	}
	return spec
}
