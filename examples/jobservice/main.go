// Two tenants, one kill -9: the at-most-once job service surviving the
// worst restart.
//
// A jobd server child runs over a durable mmap backend with two
// tenants: "alpha" (unlimited) and "beta" (MaxPending 2 — tight enough
// that pipelined submitters trip quota rejections). The parent pumps
// marked submissions at both tenants, lets a backlog build (tasks sleep
// a few milliseconds, so admission outruns execution), and SIGKILLs the
// child mid-round — no flush, no goodbye, mmap pages as they lay. A
// second incarnation opens the same directory, replays the descriptor
// log, dedupes everything the first incarnation's shard journals marked
// performed, and RE-EXECUTES the admitted-but-unperformed suffix. Then
// it keeps serving: the parent submits a fresh batch to prove the
// service is live, and shuts it down cleanly.
//
// Every task execution appends its payload index to a shared O_APPEND
// log — the oracle. The verdict, counted from the log:
//
//   - zero duplicates: no index ever executes twice, across the kill,
//     the replay and the re-execution;
//   - every quota-rejected submission executed zero times AND burned no
//     id (replayed descriptors ≤ acked submissions + in-flight bound);
//   - acked-but-never-executed is bounded by the record-then-do window
//     (one journal batch per shard) — the at-most-once loss the paper
//     trades for never-twice;
//   - everything acked by incarnation 2 (clean shutdown) executed
//     exactly once.
//
// The forensic layer closes the loop: the parent scrapes incarnation
// 1's /tracez every 5 ms (keeping the last snapshot — you cannot ask a
// SIGKILLed process for its trace), snapshots incarnation 2 after the
// drain, stitches both views into per-job cross-incarnation timelines
// (obs.StitchTimelines), checks the merged at-most-once grammar on
// every one, and prints the timeline of one re-executed job, chosen by
// what the parent KNOWS rather than by what a scrape happened to catch:
// the lowest id incarnation 1 acked whose payload the oracle had not
// seen at the kill and saw exactly once afterwards. The successor's half
// is fetched by id (/tracez?id=); the dead incarnation's half is its
// last snapshot when that reaches the job, and the client's own ack —
// the id came back from Submit before the kill — when it does not.
//
// Run with: go run ./examples/jobservice
package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"atmostonce/internal/jobd"
	"atmostonce/internal/obs"
)

const (
	shards   = 2
	workers  = 2
	maxBatch = 8 // small journal batches keep the record-then-do loss window tight

	taskSleep = 5 * time.Millisecond
	killAcked = 150 // SIGKILL once this many submissions are acked
	betaLimit = 2   // beta's MaxPending: tight, to trip quota
	betaPumps = 4   // pipelined goroutines hammering beta
	newWave   = 40  // fresh submissions against incarnation 2

	envRole = "AMO_JOBSERVICE_ROLE"
	envDir  = "AMO_JOBSERVICE_DIR"
)

func main() {
	if os.Getenv(envRole) == "server" {
		serverMain() // never returns
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "jobservice:", err)
		os.Exit(1)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "jobservice (server):", err)
	os.Exit(1)
}

// serverMain is the child: a real jobd server process over the shared
// durable directory. Its one task type appends the payload index to the
// oracle log, then dwells long enough for a backlog to build. It prints
// READY with both addresses and serves until SIGTERM (incarnation 2) or
// SIGKILL (incarnation 1 — it never sees that one coming).
func serverMain() {
	dir := os.Getenv(envDir)
	oracle, err := os.OpenFile(filepath.Join(dir, "performed.log"),
		os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		die(err)
	}
	var logMu sync.Mutex
	reg := jobd.NewRegistry()
	reg.Register("mark", 1, func(_ context.Context, payload []byte) error {
		logMu.Lock()
		_, werr := fmt.Fprintf(oracle, "%s\n", payload)
		logMu.Unlock()
		if werr != nil {
			return werr
		}
		time.Sleep(taskSleep)
		return nil
	})
	srv, err := jobd.New(jobd.Options{
		Registry: reg,
		Backend:  "mmap:" + filepath.Join(dir, "jobd"),
		MaxJobs:  1 << 14,
		LogCells: 1 << 16,
		Shards:   shards,
		Workers:  workers,
		MaxBatch: maxBatch,
		Tenants: map[string]jobd.TenantLimits{
			"alpha": {},
			"beta":  {MaxPending: betaLimit},
		},
		MetricsAddr:     "127.0.0.1:0",
		TraceSampleRate: 1.0, // trace everything: the parent stitches across the kill
	})
	if err != nil {
		die(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		die(err)
	}
	fmt.Printf("READY %s %s\n", addr, srv.OpsAddr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	<-sig
	if err := srv.Close(); err != nil {
		die(err)
	}
	oracle.Close()
	os.Exit(0)
}

// child starts a server incarnation and returns it with its two
// addresses parsed from the READY line.
func child(self, dir string) (*exec.Cmd, string, string, error) {
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), envRole+"=server", envDir+"="+dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", "", err
	}
	type ready struct{ addr, ops string }
	ch := make(chan ready, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) == 3 && f[0] == "READY" {
				ch <- ready{f[1], f[2]}
				break
			}
		}
		close(ch)
		io.Copy(io.Discard, out)
	}()
	select {
	case r, ok := <-ch:
		if !ok {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, "", "", errors.New("server exited before READY")
		}
		return cmd, r.addr, r.ops, nil
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, "", "", errors.New("server never printed READY")
	}
}

// scrapeTracez fetches a /tracez document: url is the ops address plus
// path and query.
func scrapeTracez(url string) ([]byte, error) {
	resp, err := http.Get("http://" + url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// outcome tracks what the parent knows about each payload index.
type outcome struct {
	mu       sync.Mutex
	acked1   map[int]uint64 // acked by incarnation 1 → the id its Submit returned
	acked2   map[int]bool   // acked by incarnation 2
	rejected map[int]bool   // quota-rejected: must never execute
	unknown  map[int]bool   // in flight at the kill: outcome legitimately unknown
	quota    int
}

func (o *outcome) record(idx int, inc int, id uint64, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch {
	case err == nil && inc == 1:
		o.acked1[idx] = id
	case err == nil:
		o.acked2[idx] = true
	case jobd.IsQuota(err):
		o.rejected[idx] = true
		o.quota++
	default:
		o.unknown[idx] = true // ErrConnLost at the kill, never resent
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "amo-jobservice-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	self, err := os.Executable()
	if err != nil {
		return err
	}

	// ---- Incarnation 1: pump both tenants, build a backlog, kill -9. ----
	srv1, addr1, ops1, err := child(self, dir)
	if err != nil {
		return err
	}

	// Keep the freshest /tracez view of a process that will die without
	// warning.
	var lastTrace atomic.Pointer[[]byte]
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if b, err := scrapeTracez(ops1 + "/tracez"); err == nil {
				lastTrace.Store(&b)
			} else {
				return // server is gone; last snapshot stands
			}
			<-tick.C
		}
	}()

	o := &outcome{
		acked1:   make(map[int]uint64),
		acked2:   make(map[int]bool),
		rejected: make(map[int]bool),
		unknown:  make(map[int]bool),
	}
	var nextIdx atomic.Int64
	var ackedCount atomic.Int64
	stop := make(chan struct{})
	var pumps sync.WaitGroup

	pump := func(c *jobd.Client, tenant string, inc int) {
		defer pumps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			idx := int(nextIdx.Add(1) - 1)
			id, err := c.Submit(tenant, "mark", 1, []byte(strconv.Itoa(idx)), jobd.SubmitOptions{})
			o.record(idx, inc, id, err)
			if err == nil {
				ackedCount.Add(1)
			} else if !isQuota(err) {
				return // connection lost: the kill landed
			}
		}
	}

	alpha, err := jobd.Dial(addr1, jobd.ClientOptions{Name: "alpha-pump"})
	if err != nil {
		return err
	}
	beta, err := jobd.Dial(addr1, jobd.ClientOptions{Name: "beta-pump"})
	if err != nil {
		return err
	}
	submitters := 1 + betaPumps
	pumps.Add(submitters)
	go pump(alpha, "alpha", 1)
	for i := 0; i < betaPumps; i++ {
		go pump(beta, "beta", 1)
	}

	for ackedCount.Load() < killAcked {
		time.Sleep(time.Millisecond)
	}
	if err := srv1.Process.Kill(); err != nil { // SIGKILL: mid-round, no goodbye
		return err
	}
	srv1.Wait()
	close(stop)
	pumps.Wait()
	alpha.Close()
	beta.Close()
	<-scrapeDone
	tb := lastTrace.Load()
	if tb == nil {
		return errors.New("no /tracez snapshot survived incarnation 1")
	}
	doc1, err := obs.ParseTracezDoc(*tb)
	if err != nil {
		return fmt.Errorf("incarnation 1 trace: %w", err)
	}
	atKill := readOracle(dir)
	fmt.Printf("incarnation 1 killed (SIGKILL) with %d acked, %d quota-rejected, %d in flight; oracle shows %d performed\n",
		len(o.acked1), o.quota, len(o.unknown), len(atKill))
	if o.quota == 0 {
		return errors.New("no quota rejections — beta's pumps never tripped the limit; the demo proves less than it claims")
	}

	// ---- Incarnation 2: replay, re-execute, keep serving. ----
	srv2, addr2, ops2, err := child(self, dir)
	if err != nil {
		return err
	}
	c2, err := jobd.Dial(addr2, jobd.ClientOptions{Name: "verifier"})
	if err != nil {
		return err
	}
	var st jobd.ServerStats
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err = c2.Stats()
		if err != nil {
			return err
		}
		if st.Jobs.Pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replay never drained: %+v", st.Jobs)
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("incarnation 2 (%s) replayed %d descriptors: %d deduped against the journals, %d re-executed\n",
		st.Incarnation, st.Replayed, st.Jobs.Recovered, st.Reexecuted)
	if st.Reexecuted == 0 {
		return errors.New("nothing re-executed — the kill missed the backlog; raise killAcked")
	}
	if st.Jobs.Duplicates != 0 {
		return fmt.Errorf("dispatcher reports %d duplicates", st.Jobs.Duplicates)
	}
	// Quota rejections burned no ids: every id the service ever assigned
	// is a replayed descriptor, and those number at most the acked
	// submissions plus one unacked in-flight submission per submitter.
	if int(st.Replayed) < len(o.acked1) || int(st.Replayed) > len(o.acked1)+submitters {
		return fmt.Errorf("replayed %d descriptors for %d acked submissions (+%d submitters max in flight): ids leaked or lost",
			st.Replayed, len(o.acked1), submitters)
	}
	fmt.Printf("%d quota rejections burned no ids: %d replayed descriptors for %d acked (+≤%d in flight at the kill)\n",
		o.quota, st.Replayed, len(o.acked1), submitters)

	// The service is alive: a fresh wave against both tenants.
	for i := 0; i < newWave; i++ {
		idx := int(nextIdx.Add(1) - 1)
		tenant := "alpha"
		if i%2 == 1 {
			tenant = "beta"
		}
		for {
			_, err := c2.Submit(tenant, "mark", 1, []byte(strconv.Itoa(idx)), jobd.SubmitOptions{})
			if err == nil {
				o.record(idx, 2, 0, nil)
				break
			}
			if isQuota(err) { // beta backlog: retry, don't skip the index
				time.Sleep(taskSleep)
				continue
			}
			return fmt.Errorf("second-wave submit: %w", err)
		}
	}
	deadline = time.Now().Add(60 * time.Second)
	for {
		st, err = c2.Stats()
		if err != nil {
			return err
		}
		if st.Jobs.Pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("second wave never drained: %+v", st.Jobs)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The exhibit, chosen now that every admitted job has run: acked by
	// incarnation 1, not in the oracle at the kill, in it exactly once
	// since — so the successor ran it. The lowest such id.
	var exhibit uint64
	drained := readOracle(dir)
	for idx, id := range o.acked1 {
		if atKill[idx] == 0 && drained[idx] == 1 && (exhibit == 0 || id < exhibit) {
			exhibit = id
		}
	}
	if exhibit == 0 {
		return errors.New("no job acked before the kill was left for the successor to run — the kill missed the backlog; raise killAcked")
	}
	exhibitB, err := scrapeTracez(ops2 + "/tracez?id=" + strconv.FormatUint(exhibit, 10))
	if err != nil {
		return fmt.Errorf("incarnation 2 trace of job %d: %w", exhibit, err)
	}
	exhibitDoc, err := obs.ParseTracezDoc(exhibitB)
	if err != nil {
		return err
	}
	traceB, err := scrapeTracez(ops2 + "/tracez")
	if err != nil {
		return fmt.Errorf("incarnation 2 trace: %w", err)
	}
	doc2, err := obs.ParseTracezDoc(traceB)
	if err != nil {
		return err
	}
	if err := srv2.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := srv2.Wait(); err != nil {
		return fmt.Errorf("incarnation 2 shutdown: %w", err)
	}

	// ---- The verdict, from the oracle. ----
	counts := readOracle(dir)
	var dup, lost1, lostWindow int
	for idx, n := range counts {
		if n > 1 {
			dup++
			fmt.Printf("DUPLICATE: index %d executed %d times\n", idx, n)
		}
	}
	for idx := range o.rejected {
		if counts[idx] != 0 {
			return fmt.Errorf("quota-rejected index %d executed %d times", idx, counts[idx])
		}
	}
	for idx := range o.acked1 {
		if counts[idx] == 0 {
			lost1++
		}
	}
	for idx := range o.acked2 {
		if counts[idx] != 1 {
			return fmt.Errorf("index %d acked by incarnation 2 executed %d times, want 1", idx, counts[idx])
		}
	}
	lostWindow = shards * maxBatch
	if dup > 0 {
		return fmt.Errorf("at-most-once violated: %d duplicates", dup)
	}
	if lost1 > lostWindow {
		return fmt.Errorf("%d acked jobs never executed — exceeds the %d-job record-then-do window", lost1, lostWindow)
	}
	fmt.Printf("oracle verdict: 0 duplicates across the kill; %d/%d acked jobs lost to the record-then-do window (bound %d); second wave %d/%d exactly once\n",
		lost1, len(o.acked1), lostWindow, len(o.acked2), newWave)

	// ---- The forensic exhibit: stitched cross-incarnation timelines. ----
	jobs := obs.StitchTimelines(doc1, doc2)
	if len(jobs) == 0 {
		return errors.New("stitching produced no timelines")
	}
	for _, j := range jobs {
		if err := obs.CheckStitched(j); err != nil {
			return fmt.Errorf("merged trace grammar violated: %w", err)
		}
	}
	fmt.Printf("merged trace grammar holds for all %d stitched jobs (started at most once across incarnations)\n", len(jobs))
	role := map[string]string{doc1.Incarnation: "killed", doc2.Incarnation: "successor"}
	// The successor's view of the exhibit must show a worker START:
	// genuinely re-executed, not merely recovered (a recovered job
	// resolves without a second start).
	if len(exhibitDoc.Jobs) != 1 || exhibitDoc.Jobs[0].ID != exhibit {
		return fmt.Errorf("successor's /tracez?id=%d returned %d timelines", exhibit, len(exhibitDoc.Jobs))
	}
	started2 := false
	for _, e := range exhibitDoc.Jobs[0].Events {
		started2 = started2 || e.Event == "started"
	}
	if !started2 {
		return fmt.Errorf("job %d ran under the successor per the oracle, but its successor timeline shows no start: %+v", exhibit, exhibitDoc.Jobs[0].Events)
	}
	// Both halves when the dead incarnation's last snapshot reached the
	// job; otherwise the client's ack stands in for the half that died
	// unscraped.
	timeline := exhibitDoc.Jobs[0]
	witness := "acked to the client by the killed incarnation (its last /tracez snapshot predates the job)"
	for _, j := range jobs {
		for _, e := range j.Events {
			if j.ID == exhibit && e.Inc == doc1.Incarnation {
				timeline, witness = j, "admitted by the killed incarnation"
			}
		}
	}
	if err := obs.CheckStitched(timeline); err != nil {
		return fmt.Errorf("merged trace grammar violated: %w", err)
	}
	fmt.Printf("stitched timeline of re-executed job %d — %s, performed by its successor:\n", exhibit, witness)
	if timeline.Events[0].Inc != doc1.Incarnation {
		fmt.Printf("  %12s  %-10s          inc %s (killed)\n", "before kill", "acked", doc1.Incarnation)
	}
	for _, e := range timeline.Events {
		fmt.Printf("  %+12.0fµs  %-10s shard %d  inc %s (%s)\n", e.TUs, e.Event, e.Shard, e.Inc, role[e.Inc])
	}
	fmt.Println("jobservice: OK")
	return nil
}

func isQuota(err error) bool { return jobd.IsQuota(err) }

// readOracle returns executions per payload index.
func readOracle(dir string) map[int]int {
	f, err := os.Open(filepath.Join(dir, "performed.log"))
	if err != nil {
		return map[int]int{}
	}
	defer f.Close()
	counts := make(map[int]int)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if idx, err := strconv.Atoi(strings.TrimSpace(sc.Text())); err == nil {
			counts[idx]++
		}
	}
	return counts
}
