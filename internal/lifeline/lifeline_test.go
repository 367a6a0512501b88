package lifeline

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMain routes the test binary's re-executions: a "parent" ties a
// "child" to itself and says so on stdout, and the child holds. Each is
// bounded, so that a failing run leaves nothing running for long. The
// parent hands fd 3, the write end of the test's canary pipe, on to the
// child, which keeps the only copy. Start's children are a "ready" one,
// which prints its marker, once with a field too few, and one that
// "exits" with status 3 before it.
func TestMain(m *testing.M) {
	switch os.Getenv(envRole) {
	case "parent":
		canary := os.NewFile(3, "canary")
		child := exec.Command(os.Args[0])
		child.Env = append(os.Environ(), envRole+"=child")
		child.ExtraFiles = []*os.File{canary}
		if err := Tie(child); err != nil {
			os.Exit(2)
		}
		if err := child.Start(); err != nil {
			os.Exit(2)
		}
		canary.Close()
		os.Stdout.WriteString("started\n")
		time.Sleep(10 * time.Second)
		os.Exit(0)
	case "child":
		Hold()
		time.Sleep(10 * time.Second)
		os.Exit(0)
	case "ready":
		Hold()
		os.Stdout.WriteString("READY a\nREADY a b\nafter\n")
		time.Sleep(10 * time.Second)
		os.Exit(0)
	case "exits":
		os.Exit(3)
	}
	os.Exit(m.Run())
}

// TestChildDiesWithParent SIGKILLs a parent that has tied a child to
// itself, and expects the child gone within 2 s, and not before: the
// canary pipe, whose last write end the child holds once the parent is
// dead, reads EOF.
func TestChildDiesWithParent(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	parent := exec.Command(os.Args[0])
	parent.Env = append(os.Environ(), envRole+"=parent")
	parent.ExtraFiles = []*os.File{w}
	out, err := parent.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.Start(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if line, err := bufio.NewReader(out).ReadString('\n'); line != "started\n" {
		parent.Process.Kill()
		parent.Wait()
		t.Fatalf("the parent never started its child: %q, %v", line, err)
	}
	r.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if _, err := r.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("the child died while its parent lived: %v", err)
	}
	if err := parent.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	parent.Wait()
	r.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := r.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("the child outlived its SIGKILLed parent by 2 s: read %d bytes, %v", n, err)
	}
}

// start starts the test binary in role through Start, waiting for a
// READY line with two fields.
func start(t *testing.T, role string, timeout time.Duration) (cmd *exec.Cmd, a, b string, err error) {
	cmd, err = Command(role, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	err = Start(cmd, timeout, "READY", &a, &b)
	return cmd, a, b, err
}

func TestStartSeesMarker(t *testing.T) {
	cmd, a, b, err := start(t, "ready", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cmd.Process.Kill()
	cmd.Wait()
	if a != "a" || b != "b" {
		t.Errorf("READY's fields came back as %q, %q; want a, b", a, b)
	}
}

func TestStartReapsChildThatExits(t *testing.T) {
	cmd, _, _, err := start(t, "exits", 5*time.Second)
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 3 || !strings.Contains(err.Error(), "exited before READY") {
		t.Errorf("Start = %v; want exited before READY with exit status 3", err)
	}
	if cmd.ProcessState == nil {
		t.Error("the child was not reaped")
	}
}

func TestStartKillsChildPastDeadline(t *testing.T) {
	cmd, _, _, err := start(t, "child", 100*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "printed no READY within 100ms, killed") {
		t.Errorf("Start = %v; want no READY within 100ms", err)
	}
	if cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != -1 {
		t.Errorf("the child was not killed and reaped: %v", cmd.ProcessState)
	}
}

// TestLog reads logs back: Counts refuses a log it cannot read whole,
// and m writers that each open the log, as m processes would, append
// concurrently without a lock, job i i%3 times, into exact counts.
func TestLog(t *testing.T) {
	const n, m = 999, 8
	file := func(text string) func(dir string) error {
		return func(dir string) error { return os.WriteFile(filepath.Join(dir, logName), []byte(text), 0o644) }
	}
	concurrent := func(dir string) error {
		var wg sync.WaitGroup
		errs := make([]error, m)
		for w := range m {
			wg.Add(1)
			go func() {
				defer wg.Done()
				l, err := OpenLog(dir)
				for i := range n {
					for k := range i % 3 {
						if err == nil && (i+k)%m == w {
							err = l.Append(i)
						}
					}
				}
				errs[w] = errors.Join(err, l.Close())
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	want := make([]int, n)
	for i := range want {
		want[i] = i % 3
	}
	for _, tc := range []struct {
		name      string
		write     func(dir string) error
		lo, hi    int
		want      []int // nil: Counts fails
		dup, lost int
	}{
		{"missing log", func(string) error { return nil }, 0, 4, nil, 0, 0},
		{"malformed record", file("1\n2x\n3\n"), 0, 4, nil, 0, 0},
		{"id outside the range", file("0\n3\n4\n"), 0, 4, nil, 0, 0},
		{fmt.Sprintf("%d concurrent writers", m), concurrent, 0, n, want, n / 3, n / 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := tc.write(dir); err != nil {
				t.Fatal(err)
			}
			counts, err := Counts(dir, tc.lo, tc.hi)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("Counts = %v, want an error", counts)
				}
				return
			}
			if err != nil || !slices.Equal(counts, tc.want) {
				t.Fatalf("Counts = %v, %v; want %v", counts, err, tc.want)
			}
			if dup, lost, done := Verdict(counts); dup != tc.dup || lost != tc.lost || done != tc.hi-tc.lo-tc.lost {
				t.Errorf("Verdict = %d duplicates, %d lost, %d done; want %d, %d, %d", dup, lost, done, tc.dup, tc.lost, tc.hi-tc.lo-tc.lost)
			}
		})
	}
}
