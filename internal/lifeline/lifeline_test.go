package lifeline

import (
	"bufio"
	"errors"
	"io"
	"os"
	"os/exec"
	"testing"
	"time"
)

const envRole = "AMO_LIFELINE_ROLE"

// TestMain routes the test binary's re-executions: a "parent" ties a
// "child" to itself and says so on stdout, and the child holds. Each is
// bounded, so that a failing run leaves nothing running for long. The
// parent hands fd 3, the write end of the test's canary pipe, on to the
// child, which keeps the only copy.
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
