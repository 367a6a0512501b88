package wire

import (
	"bufio"
	"errors"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"
)

// TestFifoOrder checks the client's queue of calls in flight against a
// slice: pushes at either end and pops from the front, across wrap-around,
// growth and the release of a drained ring.
func TestFifoOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q fifo[int]
	var model []*Call[int]
	for i := 0; i < 20000; i++ {
		switch r := rng.Intn(10); {
		case r < 4 || len(model) == 0:
			c := &Call[int]{Arg: i}
			q.push(c)
			model = append(model, c)
		case r < 5:
			c := &Call[int]{Arg: i}
			q.pushFront(c)
			model = slices.Insert(model, 0, c)
		default:
			if got := q.pop(); got != model[0] {
				t.Fatalf("step %d: popped call %d, want %d", i, got.Arg, model[0].Arg)
			}
			model = model[1:]
		}
		if q.n != len(model) {
			t.Fatalf("step %d: %d calls queued, want %d", i, q.n, len(model))
		}
		for j, c := range model {
			if q.at(j) != c {
				t.Fatalf("step %d: call %d of the queue is %d, want %d", i, j, q.at(j).Arg, c.Arg)
			}
		}
		if len(model) == 0 && len(q.buf) > fifoKeep {
			t.Fatalf("step %d: a drained queue keeps %d slots", i, len(q.buf))
		}
	}
}

// TestCombiningWriter holds one write in progress — a 256 KiB frame to a
// peer that reads nothing yet, over 16 KiB socket buffers — while fifteen
// more calls are made: each appends its frame and leaves it to the
// writer, which sends all fifteen in one more write once the peer reads.
func TestCombiningWriter(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	release := make(chan struct{})
	go func() { // the peer: acks every frame once released
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		nc.(*net.TCPConn).SetReadBuffer(16 << 10)
		<-release
		fr, w := NewFrameReader(nc, 4<<10), bufio.NewWriter(nc)
		for {
			op, seq, _, err := fr.Next()
			if err != nil {
				return
			}
			WriteFrame(w, op, seq, nil)
			if fr.Buffered() == 0 {
				w.Flush()
			}
		}
	}()
	cl := NewClient(Proto[int]{
		Name: "test", Addr: ln.Addr().String(), DialTimeout: 5 * time.Second, Closed: errors.New("closed"),
		Encode: func(b []byte, c *Call[int]) []byte { return append(b, make([]byte, c.Arg)...) },
		Reply:  func(*Call[int], byte, []byte) error { return nil },
		Handshake: func(nc net.Conn, _ bool) error {
			return nc.(*net.TCPConn).SetWriteBuffer(16 << 10)
		},
		Die: func(err error) { t.Error(err) },
	})
	if err := cl.Connect(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close(nil, 0)
	state := func() (queued int, writing bool) {
		cl.mu.Lock()
		defer cl.mu.Unlock()
		return cl.q.n, cl.writing
	}
	waitFor := func(what string, cond func() bool) {
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timeout: %s", what)
			}
		}
	}
	const calls = 16
	errs := make(chan error, calls) // one a call
	do := func(size int) {
		c := NewCall[int](1)
		c.Arg = size
		errs <- cl.Do(c)
	}
	go do(256 << 10)
	waitFor("the 256 KiB write to start", func() bool { n, w := state(); return n == 1 && w })
	for i := 1; i < calls; i++ {
		go do(8)
	}
	waitFor("fifteen more calls queued", func() bool { n, _ := state(); return n == calls })
	if _, w := state(); !w {
		t.Fatal("the 256 KiB write finished before the peer read: the socket buffers are larger than asked")
	}
	close(release)
	for i := 0; i < calls; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if _, writes := cl.SocketCalls(); writes != 2 {
		t.Fatalf("%d calls made during a write in progress took %d socket writes, want 2: the write and one for the rest", calls, writes)
	}
}
