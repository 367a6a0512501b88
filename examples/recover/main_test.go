package main

import (
	"os"
	"runtime"
	"testing"

	"atmostonce/internal/lifeline"
)

// TestMain doubles as the child entry point: when the example re-executes
// itself (the test binary, here), the child's lifeline role routes into
// childMain instead of the test runner.
func TestMain(m *testing.M) {
	if role, dir := lifeline.Role(); role == "child" {
		childMain(dir) // never returns
	}
	os.Exit(m.Run())
}

// TestRun executes the example end to end — child killed mid-round,
// parent recovers on the same mmap register files; examples double as
// integration tests of the public API.
func TestRun(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("mmap backend requires linux")
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
