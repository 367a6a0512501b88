// Package lifeline ties a child process to its parent: the parent holds
// the write end of the child's stdin, and the child exits when its stdin
// reaches EOF, which the kernel delivers as the parent dies, however it
// dies. A parent-death signal would need a Linux build tag, and it
// follows the OS thread that started the child, not the process.
package lifeline

import (
	"io"
	"os"
	"os/exec"
)

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
