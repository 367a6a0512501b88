package main

import (
	"strings"
	"syscall"
	"testing"
	"time"

	"atmostonce/internal/netmem"
)

// TestRunServesAndShutsDown boots the daemon on an ephemeral port,
// drives a client session against it and shuts it down with the signal
// path a deployment would use.
func TestRunServesAndShutsDown(t *testing.T) {
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-lease", "500ms"}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	c, err := netmem.Open(addr, 32, netmem.Options{Namespace: "smoke"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAcked(3, []int64{99}); err != nil {
		t.Fatal(err)
	}
	if got := c.Read(3); got != 99 {
		t.Fatalf("cell 3 = %d, want 99", got)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down on SIGTERM")
	}
}

// TestRunFlagErrors: bad invocations fail instead of serving.
func TestRunFlagErrors(t *testing.T) {
	if err := run([]string{"stray"}, nil); err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("stray argument: %v", err)
	}
	if err := run([]string{"-listen", "not-an-address"}, nil); err == nil {
		t.Fatal("unusable listen address accepted")
	}
}
