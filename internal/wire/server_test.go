package wire

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoServer runs the server core with handlers that echo until their
// connection fails. The first hang-up runs hold first, when set; a
// handler waits for linger to close before it returns, when set.
type echoServer struct {
	Server
	hangUps, returned atomic.Int32
	hold              func()
	linger            chan struct{}
}

func (e *echoServer) accept(nc net.Conn) (serve, hangUp func()) {
	serve = func() {
		io.Copy(nc, nc)
		if e.linger != nil {
			<-e.linger
		}
		e.returned.Add(1)
	}
	hangUp = func() {
		if e.hangUps.Add(1) == 1 && e.hold != nil {
			e.hold()
		}
		nc.Close()
	}
	return serve, hangUp
}

// echoed dials addr and reports whether one byte sent comes back, with
// the connection: a served connection echoes, a hung-up one fails.
func echoed(t *testing.T, addr string) (net.Conn, bool) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	var b [1]byte
	if _, err := nc.Write([]byte{'x'}); err != nil {
		return nc, false
	}
	_, err = io.ReadFull(nc, b[:])
	return nc, err == nil && b[0] == 'x'
}

// closeAsync runs Close and closes the channel it returns once Close has.
func closeAsync(s *Server) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	return done
}

// TestServerContract is the server core's contract, once for both
// servers: it listens once, and Close hangs up every connection, serves
// none that arrives while it runs, waits for every handler and happens
// once.
func TestServerContract(t *testing.T) {
	for _, tc := range []struct {
		name   string
		linger bool
		run    func(t *testing.T, e *echoServer, addr string)
	}{
		{"a second Listen is refused", false, func(t *testing.T, e *echoServer, addr string) {
			if _, err := e.Listen("127.0.0.1:0", e.accept); err == nil {
				t.Error("second Listen accepted")
			}
			if e.Addr() != addr {
				t.Errorf("Addr() = %q after a second Listen, want the first listener's %q", e.Addr(), addr)
			}
			if _, ok := echoed(t, addr); !ok {
				t.Error("the first listener stopped serving")
			}
		}},
		{"Listen after Close is refused", false, func(t *testing.T, e *echoServer, addr string) {
			e.Close()
			if _, err := e.Listen("127.0.0.1:0", e.accept); err == nil {
				t.Error("Listen after Close accepted")
			}
		}},
		{"Close hangs up every live connection and waits for every handler", true, func(t *testing.T, e *echoServer, addr string) {
			const conns = 3
			release := sync.OnceFunc(func() { close(e.linger) })
			defer release()
			var peers []net.Conn
			for range conns {
				nc, ok := echoed(t, addr) // its handler is now blocked in Read
				if !ok {
					t.Fatal("a connection was not served")
				}
				peers = append(peers, nc)
			}
			closed := closeAsync(&e.Server)
			for _, nc := range peers {
				if _, err := nc.Read(make([]byte, 1)); err == nil {
					t.Fatal("a live connection was not hung up")
				}
			}
			select {
			case <-closed:
				t.Fatal("Close returned while every handler was still running")
			case <-time.After(100 * time.Millisecond):
			}
			release()
			<-closed
			if n := e.returned.Load(); n != conns {
				t.Fatalf("Close returned after %d of %d handlers", n, conns)
			}
		}},
		{"a connection that arrives while Close runs is hung up, never served", false, func(t *testing.T, e *echoServer, addr string) {
			echoed(t, addr)
			holding, release := make(chan struct{}), make(chan struct{})
			e.hold = func() {
				close(holding)
				<-release
			}
			closed := closeAsync(&e.Server)
			<-holding // Close is hanging up; the listener is still open
			late, ok := echoed(t, addr)
			if ok {
				t.Error("a connection that arrived during Close was served")
			}
			late.Close() // a handler that serves it returns
			close(release)
			<-closed
			if n := e.returned.Load(); n != 2 {
				t.Fatalf("Close returned after %d of 2 handlers", n)
			}
		}},
		{"a second Close does nothing", false, func(t *testing.T, e *echoServer, addr string) {
			echoed(t, addr)
			e.Close()
			e.Close()
			if n := e.hangUps.Load(); n != 1 {
				t.Fatalf("one connection was hung up %d times", n)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := &echoServer{}
			if tc.linger {
				e.linger = make(chan struct{})
			}
			addr, err := e.Listen("127.0.0.1:0", e.accept)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			tc.run(t, e, addr)
		})
	}
}
