package wire

import (
	"errors"
	"maps"
	"net"
	"slices"
	"sync"
)

// Server is the server core under internal/netmem and internal/jobd: one
// listener, the set of live connections, and one close-and-wait. A server
// brings an Accept, which the accept loop calls for every connection that
// arrives before Close; the zero Server is ready to Listen.
type Server struct {
	mu     sync.Mutex
	ln     net.Listener
	live   map[net.Conn]func() // each live connection's hang-up
	closed bool
	wg     sync.WaitGroup // the accept loop and every handler
}

// Accept builds a server's connection over nc. The core runs serve on a
// goroutine of its own; hangUp, called from any goroutine, before serve
// starts or after it returned, must make serve return.
type Accept func(nc net.Conn) (serve, hangUp func())

// Listen binds addr (":0" picks a port) and accepts on it until Close; it
// returns the bound address. A server listens once, and not after Close.
func (s *Server) Listen(addr string, accept Accept) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return "", errors.New("wire: server is closed")
	case s.ln != nil:
		return "", errors.New("wire: server is already listening")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln, s.live = ln, make(map[net.Conn]func())
	s.wg.Add(1)
	go s.acceptLoop(ln, accept)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener, accept Accept) {
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // Close closed the listener
		}
		serve, hangUp := accept(nc)
		s.mu.Lock()
		closed := s.closed
		if !closed {
			s.live[nc] = hangUp
		}
		s.wg.Add(1)
		s.mu.Unlock()
		if closed {
			hangUp() // it arrived while Close ran: its handler starts hung up
		}
		go func() {
			defer s.wg.Done()
			serve()
			s.mu.Lock()
			delete(s.live, nc)
			s.mu.Unlock()
		}()
	}
}

// Addr returns the bound address, or "" before Listen.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close refuses new connections, hangs up every live one and returns once
// every handler has. The listener closes after the hang-ups, so a
// connection that arrives meanwhile is hung up, never served. A second
// Close does nothing.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	hangUps := slices.Collect(maps.Values(s.live))
	s.mu.Unlock()
	for _, hangUp := range hangUps {
		hangUp()
	}
	if s.ln != nil { // fixed once closed is set
		s.ln.Close()
	}
	s.wg.Wait()
}
