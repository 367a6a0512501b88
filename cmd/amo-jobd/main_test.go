package main

import (
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestServerAndLoad boots the real binary entry point (server mode,
// port 0), points the load generator at it, and shuts the server down
// with a real SIGTERM — the full operator path minus exec.
func TestServerAndLoad(t *testing.T) {
	ready := make(chan string, 1)
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- run([]string{
			"-listen", "127.0.0.1:0",
			"-tenant", "load:0:0",
			"-tenant", "quiet:1:0",
		}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-srvErr:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	if err := run([]string{
		"-load", "-addr", addr,
		"-conns", "4", "-jobs", "25",
		"-high-every", "5", "-subscribe",
	}, nil); err != nil {
		t.Fatalf("load run: %v", err)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-srvErr:
		if err != nil {
			t.Fatalf("server shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not exit on SIGTERM")
	}
}

// TestBadFlags covers the operator-error paths.
func TestBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"load without addr", []string{"-load"}, "-load requires -addr"},
		{"malformed tenant", []string{"-tenant", "justname"}, "want NAME:MAXPENDING:MAXHIGH"},
		{"tenant bad number", []string{"-tenant", "a:x:0"}, "bad MAXPENDING"},
		{"malformed default tenant", []string{"-default-tenant", "7"}, "wants MAXPENDING:MAXHIGH"},
		{"trace out of range", []string{"-trace", "1.5"}, "out of range"},
		{"negative logcells", []string{"-logcells", "-8"}, "must not be negative"},
		{"stray args", []string{"-load", "-addr", "x", "oops"}, "unexpected arguments"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}
