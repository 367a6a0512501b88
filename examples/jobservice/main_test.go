package main

import (
	"os"
	"runtime"
	"testing"

	"atmostonce/internal/lifeline"
)

// TestMain doubles as the server's entry point: when the example
// re-executes itself (the test binary, here), the child's lifeline role
// routes into serverMain instead of the test runner.
func TestMain(m *testing.M) {
	if role, dir := lifeline.Role(); role == "server" {
		serverMain(dir) // never returns
	}
	os.Exit(m.Run())
}

// TestRun executes the example end to end — a real jobd process killed
// with SIGKILL under load, its successor replaying the descriptor log on
// the same mmap store. run() checks its own story (zero duplicates
// across the kill, quota rejections that burned no ids, the merged trace
// grammar, the stitched timeline of a re-executed job) and returns an
// error where the program would exit nonzero.
func TestRun(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("mmap backend and SIGKILL choreography: linux only")
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
