package main

import (
	"io"
	"strings"
	"testing"
)

func TestRunQuickSingle(t *testing.T) {
	if err := run([]string{"-quick", "-only", "E1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-only", "E42"}, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunLowercaseID(t *testing.T) {
	if err := run([]string{"-quick", "-only", "e9"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestRunArgs pins what run does with a command line it cannot take as
// written.
func TestRunArgs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // "" = run returns nil
	}{
		// Flag parsing stops at the first non-flag word: without the check
		// this ran the FULL nine-experiment sweep, -quick and -only unread.
		{"stray word before the flags", []string{"x", "-quick", "-only", "E1"}, `unexpected argument "x"`},
		{"help is not a failure", []string{"-h"}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("run(%q) = %v, want nil", tc.args, err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// refused asserts that run rejects args because of flag: one of the
// sweep flags this command no longer has (performance is measured by
// `go run ./bench`). Nothing may run before the refusal.
func refused(t *testing.T, flag string, args ...string) {
	t.Helper()
	err := run(args, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "not defined: "+flag) {
		t.Fatalf("run(%q) = %v, want %s refused as undefined", args, err, flag)
	}
}

func TestRunAsyncThroughputExclusive(t *testing.T) {
	refused(t, "-async", "-async", "-quick", "-json")
	refused(t, "-throughput", "-throughput", "-quick", "-backend", "mmap", "-journalbatch", "16")
}

func TestRunPriorityBackendRejected(t *testing.T) {
	refused(t, "-priority", "-priority", "-quick")
	refused(t, "-backend", "-quick", "-backend", "mmap")
}

func TestRunSuiteCompareExclusive(t *testing.T) {
	refused(t, "-suite", "-suite", "-pr", "8")
	refused(t, "-overhead", "-overhead", "-overheadtol", "0.03")
}

func TestRunCompareBadTolerance(t *testing.T) {
	refused(t, "-tolerance", "-quick", "-tolerance", "0.20")
}

func TestRunCompareMissingBaseline(t *testing.T) {
	refused(t, "-compare", "-compare", "no-such-file.json")
}

func TestModeString(t *testing.T) {
	if mode(true) != "quick" || mode(false) != "full" {
		t.Fatal("mode strings wrong")
	}
}
