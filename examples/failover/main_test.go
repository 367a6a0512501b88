package main

import (
	"os"
	"runtime"
	"testing"

	"atmostonce/internal/lifeline"
)

// TestMain doubles as the child entry point: when the example
// re-executes itself (the test binary, here), the child's lifeline role
// routes into the child mains instead of the test runner.
func TestMain(m *testing.M) {
	switch role, dir := lifeline.Role(); role {
	case "A":
		childAMain(dir) // never returns
	case "B":
		childBMain(dir) // never returns
	}
	os.Exit(m.Run())
}

// TestRun executes the example end to end — incumbent SIGSTOPped
// mid-round, successor waits out the lease and recovers over the
// network, zombie fenced on resume; examples double as integration
// tests of the public API. The SIGSTOP choreography keeps the zombie
// stopped for several seconds, so this is deliberately a slow test.
func TestRun(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("failover example drives SIGSTOP/SIGCONT process control; linux only")
	}
	if testing.Short() {
		t.Skip("multi-process failover takes ~10s; skipped in short mode")
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
