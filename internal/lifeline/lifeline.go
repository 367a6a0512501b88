// Package lifeline is the crash drill: a program runs an incarnation of
// itself (Command, Role), waits for its marker line (Start), stops or
// kills it, and judges from outside the performed-jobs log every
// incarnation appends to (Log, Counts, Verdict).
//
// A child dies with its parent: the parent holds the write end of the
// child's stdin (Tie), and the child exits when its stdin reaches EOF
// (Hold), which the kernel delivers as the parent dies, however it dies.
// A parent-death signal would need a Linux build tag, and it follows the
// OS thread that started the child, not the process.
package lifeline

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

const envRole, envDir, logName = "AMO_LIFELINE_ROLE", "AMO_LIFELINE_DIR", "performed.log"

// Tie gives cmd, before it starts, a stdin whose write end this process
// holds until it waits for cmd or exits.
func Tie(cmd *exec.Cmd) error {
	_, err := cmd.StdinPipe()
	return err
}

// Hold exits the process once its stdin reaches EOF: the parent that
// tied it is gone.
func Hold() {
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(1)
	}()
}

// Role returns the role and directory Command gave this process, and
// holds it to its parent; role is "" in a process Command did not make.
func Role() (role, dir string) {
	if role, dir = os.Getenv(envRole), os.Getenv(envDir); role != "" {
		Hold()
	}
	return role, dir
}

// Command returns this program, to run again in role over dir with env
// added to this process's environment, tied to this process and writing
// to its stderr.
func Command(role, dir string, env ...string) (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(append(os.Environ(), envRole+"="+role, envDir+"="+dir), env...)
	cmd.Stderr = os.Stderr
	return cmd, Tie(cmd)
}

// Fatal ends a child that cannot go on: err on stderr, led by the
// program's name and its role, and exit status 1.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s (%s): %v\n", filepath.Base(os.Args[0]), os.Getenv(envRole), err)
	os.Exit(1)
}

// Start starts cmd and waits up to timeout for a line of its stdout that
// is marker and len(fields) more fields, which it stores in fields; the
// rest of stdout is discarded. A child that exits first or misses the
// deadline is killed and reaped, and the error says which.
func Start(cmd *exec.Cmd, timeout time.Duration, marker string, fields ...*string) error {
	r, w, err := os.Pipe()
	if err != nil {
		return err
	}
	cmd.Stdout = w
	err = cmd.Start()
	w.Close() // the child's copy is the one left: EOF is its exit
	if err != nil {
		r.Close()
		return err
	}
	found := make(chan []string, 1)
	go func() {
		defer r.Close()
		for sc := bufio.NewScanner(r); sc.Scan(); {
			if f := strings.Fields(sc.Text()); len(f) == 1+len(fields) && f[0] == marker {
				found <- f[1:]
				io.Copy(io.Discard, r)
				return
			}
		}
		close(found)
	}()
	why := fmt.Sprintf("printed no %s within %s, killed", marker, timeout)
	select {
	case f, ok := <-found:
		if ok {
			for i, p := range fields {
				*p = f[i]
			}
			return nil
		}
		why = "exited before " + marker
	case <-time.After(timeout):
	}
	cmd.Process.Kill()
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("%s: %w", why, err)
	}
	return errors.New(why)
}

// Log is the performed-jobs log in a drill's directory, a line per job
// performed. It is opened O_APPEND and a record is one write, so records
// land whole however many writers share it, in one process or many,
// with no lock.
type Log struct{ f *os.File }

// OpenLog opens dir's log to append to, making it if need be.
func OpenLog(dir string) (Log, error) {
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	return Log{f}, err
}

// Append records that job id was performed.
func (l Log) Append(id int) error {
	_, err := l.f.Write(append(strconv.AppendInt(nil, int64(id), 10), '\n'))
	return err
}

// Close closes this process's handle on the log.
func (l Log) Close() error { return l.f.Close() }

// Counts reads dir's log and returns how often each job in [lo, hi) was
// performed, job id's count at id-lo. A missing log, or a record that is
// not a job in [lo, hi) ended by a newline, is an error: a verdict is
// taken from the whole log or not at all.
func Counts(dir string, lo, hi int) ([]int, error) {
	b, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		return nil, err
	}
	counts := make([]int, hi-lo)
	for rest := string(b); rest != ""; {
		rec, tail, ok := strings.Cut(rest, "\n")
		id, err := strconv.Atoi(rec)
		if !ok || err != nil || id < lo || id >= hi {
			return nil, fmt.Errorf("%s: record %q is not a job in [%d, %d)", logName, rec, lo, hi)
		}
		counts[id-lo]++
		rest = tail
	}
	return counts, nil
}

// Verdict returns how many jobs counts holds as performed more than once
// (dup), never (lost) and at least once (done).
func Verdict(counts []int) (dup, lost, done int) {
	for _, n := range counts {
		switch {
		case n == 0:
			lost++
		case n > 1:
			dup++
		}
	}
	return dup, lost, len(counts) - lost
}
