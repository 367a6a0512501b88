// Crash recovery: at-most-once across process death.
//
// A dispatcher over the durable mmap backend journals every performed
// job in its register file before running the payload. This example
// proves the property the hard way: it re-executes itself as a child
// process, the child freezes with a round of the job stream genuinely
// in flight and is killed (os.Exit — no cleanup, no Close, exactly a
// crash), and the parent then reopens the same register files,
// re-submits the identical stream and lets recovery sort out what
// already ran. Every job appends its id to a shared log file when it
// executes, so duplicates and losses are counted from the log itself:
// both must be zero.
//
// The example runs the kill twice, once per journaling mode:
//
//   - JournalBatch=1 (journal per job): the kill is engineered to land
//     at an action boundary (every worker is parked inside a payload it
//     has already journaled and logged), which is the paper's crash
//     model (§2.1): crashes stop a process between actions. Invariant:
//     zero duplicates AND zero losses.
//   - JournalBatch=16 (group commit, DESIGN.md §7): each worker
//     journals a claim of up to 16 jobs in one vectored write, then runs
//     the payloads. The same kill now lands mid-claim — the frozen
//     worker's whole claim is journaled but only a prefix of its
//     payloads ran, so recovery counts the journaled remainder as
//     performed. Invariant: still zero duplicates, and the loss is
//     bounded by JournalBatch-1 per worker — the crash window the
//     batching knob buys its throughput with.
//
// Run with: go run ./examples/recover
package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"atmostonce"
	"atmostonce/internal/lifeline"
)

const (
	totalJobs  = 2000
	workers    = 4
	groupBatch = 16 // JournalBatch of the group-commit scenario
	killAfter  = 40 // payloads to run before the child freezes and dies
	crashExit  = 42 // child's exit code for "crashed as planned"

	envChild = "AMO_RECOVER_CHILD"
	envDir   = "AMO_RECOVER_DIR"
	envJB    = "AMO_RECOVER_JOURNAL_BATCH"
)

func main() {
	if os.Getenv(envChild) != "" {
		childMain() // never returns
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "recover:", err)
		os.Exit(1)
	}
}

func config(dir string, journalBatch int) atmostonce.DispatcherConfig {
	return atmostonce.DispatcherConfig{
		Shards:          1,
		WorkersPerShard: workers,
		MaxBatch:        512,
		Backend:         "mmap:" + filepath.Join(dir, "regs"),
		JournalBatch:    journalBatch,
		MaxJobs:         totalJobs,
	}
}

// appendLog appends one performed-job record; O_APPEND keeps records
// intact even while m workers log concurrently.
func appendLog(f *os.File, id int) {
	if _, err := fmt.Fprintf(f, "%d\n", id); err != nil {
		panic(err)
	}
}

// childMain is the doomed incarnation: submit the whole stream, let the
// dispatcher perform killAfter jobs, freeze every worker inside a
// payload, then die without any cleanup.
func childMain() {
	lifeline.Hold()
	dir := os.Getenv(envDir)
	jb, err := strconv.Atoi(os.Getenv(envJB))
	if err != nil {
		fatal(fmt.Errorf("bad %s: %w", envJB, err))
	}
	logF, err := os.OpenFile(filepath.Join(dir, "performed.log"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fatal(err)
	}
	d, err := atmostonce.NewDispatcher(config(dir, jb))
	if err != nil {
		fatal(err)
	}

	var performed, frozen atomic.Int64
	freeze := make(chan struct{}) // never closed; the kill releases it
	tasks := make([]atmostonce.Task, totalJobs)
	for i := range tasks {
		id := i + 1
		tasks[i].Fn = func(context.Context) error {
			appendLog(logF, id) // the job's observable effect
			if performed.Add(1) >= killAfter {
				// Park this worker inside the payload: its journal record
				// and its log record are both already written, so dying
				// here is an action-boundary crash.
				frozen.Add(1)
				<-freeze
			}
			return nil
		}
	}
	if _, err := d.DoBatch(context.Background(), tasks); err != nil {
		fatal(err)
	}
	// Wait until every worker is frozen mid-round, flush the mapping for
	// good measure (same-machine recovery reads the page cache either
	// way), and die.
	for deadline := time.Now().Add(20 * time.Second); frozen.Load() < workers; {
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("workers never froze: %d/%d", frozen.Load(), workers))
		}
		runtime.Gosched()
	}
	if err := d.Sync(); err != nil {
		fatal(err)
	}
	logF.Sync()
	os.Exit(crashExit) // no Close, no drain: this is the crash
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "recover (child):", err)
	os.Exit(1)
}

func run() error {
	if err := runScenario(1); err != nil {
		return fmt.Errorf("journal-per-job: %w", err)
	}
	if err := runScenario(groupBatch); err != nil {
		return fmt.Errorf("group-commit (JournalBatch=%d): %w", groupBatch, err)
	}
	return nil
}

// runScenario kills a child mid-stream and recovers, at one JournalBatch
// setting. jb=1 demands zero loss (the kill lands at action boundaries);
// jb>1 allows the group-commit crash window — journaled claims whose
// payloads never ran — but bounds it at jb-1 per worker and still
// demands zero duplicates.
func runScenario(jb int) error {
	fmt.Printf("--- JournalBatch=%d ---\n", jb)
	dir, err := os.MkdirTemp("", "amo-recover-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Incarnation 1: run ourselves as the child and let it crash.
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), envChild+"=1", envDir+"="+dir, envJB+"="+strconv.Itoa(jb))
	cmd.Stderr = os.Stderr
	if err := lifeline.Tie(cmd); err != nil {
		return err
	}
	err = cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return fmt.Errorf("child exited cleanly; it was supposed to crash")
	case errors.As(err, &ee) && ee.ExitCode() == crashExit:
		// Crashed as planned, mid-round.
	default:
		return fmt.Errorf("child failed: %w", err)
	}
	crashed, err := readLog(dir)
	if err != nil {
		return err
	}
	fmt.Printf("child killed mid-round after performing %d of %d jobs\n", len(crashed), totalJobs)

	// Incarnation 2: reopen the same register files and re-submit the
	// identical stream. Recovery resolves everything the child already
	// performed; the rest — including the round the kill cut off — runs
	// exactly once.
	logF, err := os.OpenFile(filepath.Join(dir, "performed.log"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer logF.Close()
	d, err := atmostonce.NewDispatcher(config(dir, jb))
	if err != nil {
		return err
	}
	defer d.Close()
	tasks := make([]atmostonce.Task, totalJobs)
	for i := range tasks {
		id := i + 1
		tasks[i].Fn = func(context.Context) error { appendLog(logF, id); return nil }
	}
	if _, err := d.DoBatch(context.Background(), tasks); err != nil {
		return err
	}
	d.Flush()
	st := d.Stats()
	if err := d.Close(); err != nil {
		return err
	}

	// The verdict comes from the log: every id exactly once, across both
	// incarnations.
	counts, err := readLog(dir)
	if err != nil {
		return err
	}
	dup, lost := 0, 0
	for id := 1; id <= totalJobs; id++ {
		switch counts[id] {
		case 1:
		case 0:
			lost++
		default:
			dup++
		}
	}
	fmt.Printf("restart recovered %d journaled jobs, performed the remaining %d\n",
		st.Recovered, st.Performed-st.Recovered)
	fmt.Printf("after recovery: %d duplicates, %d lost, %d/%d jobs done exactly once\n",
		dup, lost, totalJobs-dup-lost, totalJobs)

	// The journal is the recovery oracle: every record it held must match
	// a child log line (payload ran) or a counted loss (claim journaled,
	// payload never ran — possible only in the group-commit window).
	if st.Recovered != uint64(len(crashed)+lost) {
		return fmt.Errorf("recovered %d journaled jobs, but the child logged %d and %d were lost",
			st.Recovered, len(crashed), lost)
	}
	if dup > 0 {
		return fmt.Errorf("at-most-once violated across the crash: %d duplicates", dup)
	}
	if maxLost := workers * (jb - 1); lost > maxLost {
		return fmt.Errorf("%d jobs lost across the crash; the group-commit window bounds loss at %d (%d workers × (JournalBatch-1))",
			lost, maxLost, workers)
	}
	return nil
}

// readLog returns performed-counts per job id (index 0 unused).
func readLog(dir string) (map[int]int, error) {
	f, err := os.Open(filepath.Join(dir, "performed.log"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	counts := make(map[int]int, totalJobs)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		id, err := strconv.Atoi(sc.Text())
		if err != nil || id < 1 || id > totalJobs {
			return nil, fmt.Errorf("corrupt log record %q", sc.Text())
		}
		counts[id]++
	}
	return counts, sc.Err()
}
