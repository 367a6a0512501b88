// Fenced failover: at-most-once across dispatcher takeover, over the
// network — with the full forensic trail.
//
// Two dispatcher processes share one register namespace on an amo-regd
// register server. Process A starts the job stream, freezes with a
// round genuinely in flight (every worker parked inside a payload whose
// journal record the server has already acknowledged) and is then
// SIGSTOPped — the classic "stalled but not dead" failure: a GC pause,
// a VM migration, a partition. Its writer lease expires; process B,
// which has been waiting on the lease, takes over at the next fencing
// epoch, recovers A's journal over the wire, re-submits the identical
// stream and finishes it. Then A is SIGCONTed: it wakes up believing it
// is still the writer, and every register operation it attempts is
// rejected by the server as stale-epoch — the client panics (fencing
// suicide) before any payload can run twice. Every job appends its id
// to a shared log when it executes, so the verdict is counted from the
// log itself: zero duplicates, zero losses.
//
// The forensic layer (DESIGN.md §13) is exercised end to end: both
// children sample job timelines and snapshot their /tracez endpoint to
// disk, and the parent stitches the two views into one cross-process
// timeline per job (obs.StitchTimelines), checks the
// at-most-once trace grammar on the merged timelines — started at most
// once ACROSS incarnations — and prints the stitched timeline of one
// recovered job. A's death is verified structurally: its stderr must
// carry a flight-recorder dump (AMO-FLIGHT-DUMP) whose fatal event says
// fenced=true and names both epochs.
//
// Run with: go run ./examples/failover
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"atmostonce"
	"atmostonce/internal/netmem"
	"atmostonce/internal/obs"
	"atmostonce/internal/obs/eventlog"
)

const (
	totalJobs = 1500
	workers   = 4
	maxBatch  = 512
	killAfter = 40 // payloads A runs before freezing mid-round

	// traceRate samples half the job ids into each process's tracer.
	// The hash is deterministic on the id, so A, B and the server all
	// sample the SAME ids — which is what makes their per-process
	// fragments stitch into complete cross-incarnation timelines.
	traceRate = 0.5

	// leaseTTL is the writer lease; A's expires while it is stopped.
	// stallThreshold is A's self-detection of the stop (a wall-clock
	// discontinuity far above any scheduler hiccup), and stopFloor is
	// how long the parent keeps A stopped — comfortably above the
	// threshold, so the detector cannot fire while A still holds the
	// lease.
	leaseTTL       = 750 * time.Millisecond
	stallThreshold = 3 * time.Second
	stopFloor      = 6 * time.Second

	notFencedExit = 3 // A: fencing never killed us (failure)

	envRole = "AMO_FAILOVER_ROLE"
	envDir  = "AMO_FAILOVER_DIR"
	envSpec = "AMO_FAILOVER_SPEC"
)

func main() {
	switch os.Getenv(envRole) {
	case "A":
		childAMain() // never returns
	case "B":
		childBMain() // never returns
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "failover:", err)
		os.Exit(1)
	}
}

func config(spec string) atmostonce.DispatcherConfig {
	return atmostonce.DispatcherConfig{
		Shards:          1,
		WorkersPerShard: workers,
		MaxBatch:        maxBatch,
		Backend:         spec,
		MaxJobs:         totalJobs,
		// Each child serves its own ops endpoint so it can snapshot its
		// /tracez view to disk for the parent to stitch.
		MetricsAddr:     "127.0.0.1:0",
		TraceSampleRate: traceRate,
	}
}

// snapshotTracez fetches the child's own /tracez document and writes it
// where the parent will look for it. Best-effort by design on the
// incumbent: it runs moments before a deliberate crash.
func snapshotTracez(d *atmostonce.Dispatcher, dir, name string) error {
	addr := d.OpsAddr()
	if addr == "" {
		return fmt.Errorf("no ops endpoint bound")
	}
	resp, err := http.Get("http://" + addr + "/tracez")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), body, 0o644)
}

// appendLog appends one performed-job record; O_APPEND keeps records
// intact under concurrent workers.
func appendLog(f *os.File, id int) {
	if _, err := fmt.Fprintf(f, "%d\n", id); err != nil {
		panic(err)
	}
}

func openLog(dir string) *os.File {
	f, err := os.OpenFile(filepath.Join(dir, "performed.log"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fatal("A", err)
	}
	return f
}

func fatal(role string, err error) {
	fmt.Fprintf(os.Stderr, "failover (child %s): %v\n", role, err)
	os.Exit(1)
}

// childAMain is the incumbent: submit the stream, perform killAfter
// payloads, park every worker inside a payload, announce FROZEN, and
// wait to be stopped. After the SIGCONT it detects the wall-clock gap,
// releases the workers and lets the fencing kill it: its lease epoch is
// stale by then, so its first register operation — the next job's
// journal write or the background lease renewal, whichever lands first
// — panics the process before any payload can run a second time. The trace snapshot is taken at the
// freeze, i.e. the last instant this incarnation's view exists.
func childAMain() {
	dir, spec := os.Getenv(envDir), os.Getenv(envSpec)
	logF := openLog(dir)
	d, err := atmostonce.NewDispatcher(config(spec))
	if err != nil {
		fatal("A", err)
	}

	var performed, frozen atomic.Int64
	gate := make(chan struct{})
	var gateOnce sync.Once
	tasks := make([]atmostonce.Task, totalJobs)
	for i := range tasks {
		id := i + 1
		tasks[i].Fn = func(context.Context) error {
			appendLog(logF, id) // the job's observable effect
			if performed.Add(1) >= killAfter {
				// Park here: this payload's journal record was
				// acknowledged by the server before it ran, and its log
				// record is written, so freezing now is an
				// action-boundary stall.
				frozen.Add(1)
				<-gate
			}
			return nil
		}
	}
	if _, err := d.DoBatch(context.Background(), tasks); err != nil {
		fatal("A", err)
	}
	for deadline := time.Now().Add(20 * time.Second); frozen.Load() < workers; {
		if time.Now().After(deadline) {
			fatal("A", fmt.Errorf("workers never froze: %d/%d", frozen.Load(), workers))
		}
		time.Sleep(time.Millisecond)
	}
	logF.Sync()
	if err := snapshotTracez(d, dir, "trace-A.json"); err != nil {
		fatal("A", fmt.Errorf("trace snapshot: %w", err))
	}
	fmt.Println("FROZEN") // the parent SIGSTOPs us on this line

	// Stall detector: a sleep that "took" longer than stallThreshold
	// means we were stopped and resumed — the moral equivalent of coming
	// back from a long GC pause. Release the workers and let them
	// discover the fence.
	for {
		before := time.Now()
		time.Sleep(50 * time.Millisecond)
		if time.Since(before) > stallThreshold {
			break
		}
	}
	gateOnce.Do(func() { close(gate) })

	// The fence must kill this process (panic in a worker or the lease
	// renewer, exit code 2). Surviving means fencing failed.
	time.Sleep(30 * time.Second)
	os.Exit(notFencedExit)
}

// childBMain is the successor: open the same namespace (blocking on the
// writer lease until A's expires), recover the journal over the
// network, re-submit the identical stream and finish it, snapshotting
// its trace view before shutting down.
func childBMain() {
	dir, spec := os.Getenv(envDir), os.Getenv(envSpec)
	logF := openLog(dir)
	d, err := atmostonce.NewDispatcher(config(spec)) // waits out A's lease here
	if err != nil {
		fatal("B", err)
	}
	tasks := make([]atmostonce.Task, totalJobs)
	for i := range tasks {
		id := i + 1
		tasks[i].Fn = func(context.Context) error { appendLog(logF, id); return nil }
	}
	if _, err := d.DoBatch(context.Background(), tasks); err != nil {
		fatal("B", err)
	}
	d.Flush()
	st := d.Stats()
	if err := snapshotTracez(d, dir, "trace-B.json"); err != nil {
		fatal("B", fmt.Errorf("trace snapshot: %w", err))
	}
	if err := d.Close(); err != nil {
		fatal("B", err)
	}
	logF.Close()
	fmt.Printf("RECOVERED %d\n", st.Recovered)
	os.Exit(0)
}

func run() error {
	dir, err := os.MkdirTemp("", "amo-failover-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	srv := netmem.NewServer(netmem.ServerOptions{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	ns := fmt.Sprintf("failover-%d-%d", os.Getpid(), time.Now().UnixNano()&0xffffff)
	spec := fmt.Sprintf("net:%s/%s?ttl=%s&acquiretimeout=30s", addr, ns, leaseTTL)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	child := func(role string) *exec.Cmd {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), envRole+"="+role, envDir+"="+dir, envSpec+"="+spec)
		return cmd
	}

	// Incarnation A: run until frozen mid-round, then stop it cold.
	a := child("A")
	aOut, err := a.StdoutPipe()
	if err != nil {
		return err
	}
	var aErr bytes.Buffer
	a.Stderr = &aErr
	if err := a.Start(); err != nil {
		return err
	}
	frozen := make(chan bool, 1)
	go func() {
		sc := bufio.NewScanner(aOut)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) == "FROZEN" {
				frozen <- true
				return
			}
		}
		frozen <- false
	}()
	select {
	case ok := <-frozen:
		if !ok {
			a.Wait()
			return fmt.Errorf("A exited before freezing; stderr:\n%s", aErr.String())
		}
	case <-time.After(60 * time.Second):
		a.Process.Kill()
		return fmt.Errorf("A never froze")
	}
	if err := a.Process.Signal(syscall.SIGSTOP); err != nil {
		return err
	}
	stopped := time.Now()
	crashed, err := readLog(dir)
	if err != nil {
		return err
	}
	fmt.Printf("A frozen mid-round after performing %d of %d jobs; SIGSTOPped, lease expiring\n",
		len(crashed), totalJobs)

	// Incarnation B: waits out the lease, takes over, finishes.
	b := child("B")
	bOut := &bytes.Buffer{}
	b.Stdout = bOut
	b.Stderr = os.Stderr
	bStart := time.Now()
	if err := b.Run(); err != nil {
		return fmt.Errorf("B failed: %w", err)
	}
	recovered, err := parseRecovered(bOut.String())
	if err != nil {
		return err
	}
	fmt.Printf("B took over after %s wait, recovered %d journaled jobs over the network, performed the remaining %d\n",
		time.Since(bStart).Round(time.Millisecond), recovered, totalJobs-recovered)
	if recovered != len(crashed) {
		return fmt.Errorf("B recovered %d jobs, but A logged %d before the stop", recovered, len(crashed))
	}

	// Wake the zombie. Keep it stopped past its own stall threshold
	// first, so its detector cannot have fired while it still held the
	// lease.
	if rest := stopFloor - time.Since(stopped); rest > 0 {
		time.Sleep(rest)
	}
	if err := a.Process.Signal(syscall.SIGCONT); err != nil {
		return err
	}
	werr := a.Wait()
	var ee *exec.ExitError
	switch {
	case werr == nil:
		return fmt.Errorf("A exited cleanly after takeover; it was supposed to die fenced")
	case errors.As(werr, &ee) && ee.ExitCode() == notFencedExit:
		return fmt.Errorf("A was never fenced; stderr:\n%s", aErr.String())
	case errors.As(werr, &ee):
		// Verify the death STRUCTURALLY: the zombie must have left a
		// flight-recorder dump whose fatal event says fenced, with both
		// epochs (its own stale stamp and the lease's current one) in
		// the rejection text.
		if err := checkFlightDump(aErr.String()); err != nil {
			return fmt.Errorf("A died (code %d) but its flight-recorder dump is wrong: %w; stderr:\n%s",
				ee.ExitCode(), err, aErr.String())
		}
	default:
		return fmt.Errorf("waiting for A: %w", werr)
	}
	fmt.Printf("A resumed as a zombie and was fenced by the server (exit %d)\n", ee.ExitCode())

	// Stitch the per-process trace views into cross-incarnation
	// timelines and check the merged at-most-once grammar.
	if err := stitchAndCheck(dir); err != nil {
		return err
	}

	// The verdict comes from the log: every id exactly once, across the
	// freeze, the takeover and the zombie's death.
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
	fmt.Printf("after failover: %d duplicates, %d lost, %d/%d jobs done exactly once\n",
		dup, lost, totalJobs-dup-lost, totalJobs)
	if dup > 0 {
		return fmt.Errorf("at-most-once violated across the failover: %d duplicates", dup)
	}
	if lost > 0 {
		return fmt.Errorf("%d jobs lost across the failover", lost)
	}
	return nil
}

// checkFlightDump finds the AMO-FLIGHT-DUMP line in the zombie's stderr
// and asserts its fatal event records a fence: fenced=true, an epoch
// attr, and the server's rejection text carrying the current lease
// epoch ("lease is at N").
func checkFlightDump(stderr string) error {
	var dump eventlog.FlightDump
	found := false
	for _, line := range strings.Split(stderr, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), strings.TrimSpace(eventlog.DumpPrefix)); ok {
			if err := json.Unmarshal([]byte(rest), &dump); err != nil {
				return fmt.Errorf("unparseable flight dump: %v", err)
			}
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("no %s line on stderr", strings.TrimSpace(eventlog.DumpPrefix))
	}
	for _, ev := range dump.Events {
		if ev.Event != "netmem_client_fatal" {
			continue
		}
		if fenced, _ := ev.Attrs["fenced"].(bool); !fenced {
			return fmt.Errorf("fatal event has fenced=%v", ev.Attrs["fenced"])
		}
		if _, ok := ev.Attrs["epoch"]; !ok {
			return fmt.Errorf("fatal event carries no epoch")
		}
		errText, _ := ev.Attrs["err"].(string)
		if !strings.Contains(errText, "lease is at") {
			return fmt.Errorf("fatal event names no successor epoch: %q", errText)
		}
		fmt.Printf("A's flight-recorder dump contains the fencing event: stale epoch %v, rejection %q (incarnation %s, %d events)\n",
			ev.Attrs["epoch"], errText, dump.Incarnation, len(dump.Events))
		return nil
	}
	return fmt.Errorf("flight dump has no netmem_client_fatal event (%d events)", len(dump.Events))
}

// stitchAndCheck merges the trace views — incumbent A (snapshotted at
// its freeze) and successor B (snapshotted after its flush) — into
// per-job cross-incarnation timelines, asserts the merged at-most-once
// grammar on every one, and prints the stitched timeline of one
// recovered job as the forensic exhibit.
func stitchAndCheck(dir string) error {
	aDoc, err := readTracezFile(filepath.Join(dir, "trace-A.json"))
	if err != nil {
		return fmt.Errorf("incumbent trace: %w", err)
	}
	bDoc, err := readTracezFile(filepath.Join(dir, "trace-B.json"))
	if err != nil {
		return fmt.Errorf("successor trace: %w", err)
	}
	role := map[string]string{aDoc.Incarnation: "incumbent", bDoc.Incarnation: "successor"}

	jobs := obs.StitchTimelines(aDoc, bDoc)
	if len(jobs) == 0 {
		return fmt.Errorf("stitching produced no timelines")
	}
	for _, j := range jobs {
		if err := obs.CheckStitched(j); err != nil {
			return fmt.Errorf("merged trace grammar violated: %w", err)
		}
	}
	fmt.Printf("merged trace grammar holds for all %d stitched jobs (started ≤ 1 across incarnations)\n", len(jobs))

	// The exhibit: a job that A started and journaled, and B resolved
	// from the journal — its one timeline spans both incarnations.
	for _, j := range jobs {
		incs := j.Incarnations()
		recovered, spansBoth := false, false
		seenA, seenB := false, false
		for _, inc := range incs {
			seenA = seenA || inc == aDoc.Incarnation
			seenB = seenB || inc == bDoc.Incarnation
		}
		spansBoth = seenA && seenB
		for _, e := range j.Events {
			if e.Event == "recovered" {
				recovered = true
			}
		}
		if !recovered || !spansBoth {
			continue
		}
		fmt.Printf("stitched timeline for recovered job %d spans %d incarnations (incumbent %s -> successor %s):\n",
			j.ID, len(incs), aDoc.Incarnation, bDoc.Incarnation)
		for _, e := range j.Events {
			fmt.Printf("  %+12.0fµs  %-10s shard %-3d  inc %s (%s)\n", e.TUs, e.Event, e.Shard, e.Inc, role[e.Inc])
		}
		return nil
	}
	return fmt.Errorf("no stitched timeline spans both incarnations with a recovered event (%d jobs)", len(jobs))
}

func readTracezFile(path string) (obs.TracezDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return obs.TracezDoc{}, err
	}
	return obs.ParseTracezDoc(b)
}

func parseRecovered(out string) (int, error) {
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "RECOVERED "); ok {
			return strconv.Atoi(rest)
		}
	}
	return 0, fmt.Errorf("B reported no RECOVERED line; output:\n%s", out)
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
