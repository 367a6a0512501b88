package netmem

import (
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ChaosOptions shapes the faults a ChaosProxy injects.
type ChaosOptions struct {
	// Seed makes the fault schedule deterministic.
	Seed int64
	// Latency (plus a uniform [0,LatencyJitter) extra) is slept before
	// each forwarded chunk, per direction.
	Latency       time.Duration
	LatencyJitter time.Duration
	// DropEvery, when > 0, severs a connection pair after roughly that
	// many forwarded bytes (uniform in [DropEvery/2, 3·DropEvery/2)),
	// counted per direction.
	DropEvery int
	// PartialWrites makes each injected drop first forward a strict
	// prefix of the chunk in hand, so the victim sees a truncated frame
	// — the hardest cut for a framing layer — rather than a clean
	// boundary.
	PartialWrites bool
	// Logf, when non-nil, receives one line per injected fault.
	Logf func(format string, args ...any)
}

// ChaosProxy is a wire-level fault injector: a TCP proxy in front of a
// register server that delays, truncates and severs traffic so tests
// can drive the client's reconnect-and-resume path without touching
// either endpoint. Faults are injected on the byte stream, below the
// protocol, which is exactly where real networks misbehave.
type ChaosProxy struct {
	target string
	opts   ChaosOptions
	ln     net.Listener

	mu     sync.Mutex
	rng    *rand.Rand
	pairs  map[*proxyPair]struct{}
	closed bool
	drops  int
	wg     sync.WaitGroup
}

type proxyPair struct {
	client, server net.Conn
	once           sync.Once
}

// sever closes both ends once and reports whether this call closed them.
func (p *proxyPair) sever() (cut bool) {
	p.once.Do(func() {
		p.client.Close()
		p.server.Close()
		cut = true
	})
	return cut
}

// NewChaosProxy listens on 127.0.0.1:0 and forwards to target with the
// configured faults. Close it to stop.
func NewChaosProxy(target string, opts ChaosOptions) (*ChaosProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &ChaosProxy{
		target: target,
		opts:   opts,
		ln:     ln,
		rng:    rand.New(rand.NewSource(opts.Seed)),
		pairs:  make(map[*proxyPair]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address; point clients at it.
func (p *ChaosProxy) Addr() string { return p.ln.Addr().String() }

// Drops returns the number of connection severs injected so far.
func (p *ChaosProxy) Drops() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.drops
}

// DropAll severs every live connection pair now (a test hook for
// forcing a reconnect at a chosen moment).
func (p *ChaosProxy) DropAll() {
	p.mu.Lock()
	pairs := make([]*proxyPair, 0, len(p.pairs))
	for pr := range p.pairs {
		pairs = append(pairs, pr)
	}
	p.mu.Unlock()
	for _, pr := range pairs {
		p.cut(pr)
	}
}

// cut severs pr and counts a drop if this call closed it: a pair stays in
// p.pairs until its pumps return, so DropAll can meet one already cut.
func (p *ChaosProxy) cut(pr *proxyPair) {
	if pr.sever() {
		p.mu.Lock()
		p.drops++
		p.mu.Unlock()
	}
}

// Close stops the proxy and severs everything in flight.
func (p *ChaosProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.DropAll()
	p.wg.Wait()
	return nil
}

func (p *ChaosProxy) logf(format string, args ...any) {
	if p.opts.Logf != nil {
		p.opts.Logf(format, args...)
	}
}

// intn draws from the shared rng (guarded: pumps run concurrently).
func (p *ChaosProxy) intn(n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.Intn(n)
}

func (p *ChaosProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.DialTimeout("tcp", p.target, 5*time.Second)
		if err != nil {
			c.Close()
			continue
		}
		pair := &proxyPair{client: c, server: s}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			pair.sever()
			return
		}
		p.pairs[pair] = struct{}{}
		p.wg.Add(2)
		p.mu.Unlock()
		go p.pump(pair, c, s, "c→s")
		go p.pump(pair, s, c, "s→c")
	}
}

// pump forwards src → dst, injecting latency and, when the direction's
// byte budget runs out, an optional partial write followed by a sever
// of the whole pair.
func (p *ChaosProxy) pump(pair *proxyPair, src, dst net.Conn, dir string) {
	defer p.wg.Done()
	defer func() {
		pair.sever()
		p.mu.Lock()
		delete(p.pairs, pair)
		p.mu.Unlock()
	}()
	budget := -1
	if p.opts.DropEvery > 0 {
		budget = p.opts.DropEvery/2 + p.intn(p.opts.DropEvery)
	}
	buf := make([]byte, 8<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if p.opts.Latency > 0 || p.opts.LatencyJitter > 0 {
				d := p.opts.Latency
				if p.opts.LatencyJitter > 0 {
					d += time.Duration(p.intn(int(p.opts.LatencyJitter)))
				}
				time.Sleep(d)
			}
			chunk := buf[:n]
			if budget >= 0 && n >= budget {
				// Fault point: forward a strict prefix (maybe empty),
				// then sever both directions mid-frame.
				cut := 0
				if p.opts.PartialWrites && n > 1 {
					cut = p.intn(n)
				}
				if cut > 0 {
					dst.Write(chunk[:cut])
				}
				p.cut(pair)
				p.logf("netmem: chaos drop (%s) after %d of %d bytes", dir, cut, n)
				return
			}
			if budget >= 0 {
				budget -= n
			}
			if _, werr := dst.Write(chunk); werr != nil {
				return
			}
		}
		if err != nil {
			if err != io.EOF {
				_ = err
			}
			return
		}
	}
}
