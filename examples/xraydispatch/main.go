// X-ray dispatch: the paper's §1 motivating scenario — "the activation of
// the X-ray gun in an X-ray machine ... performing specific jobs
// at-most-once may be of paramount importance for safety of patients".
//
// A treatment plan is a sequence of n radiation pulses; delivering any
// single pulse TWICE would overdose the patient. Here the plan runs on
// the durable streaming Dispatcher: session 1 journals every pulse to
// mmap register files (record-then-do) and dies mid-plan; session 2
// reopens the same files, re-submits the whole plan, and the journal
// resolves the already-delivered pulses as Recovered — the X-ray gun
// never fires them again.
//
// Session 2 also runs with full trace sampling and an ops endpoint, so
// the per-job timelines that prove it are observable: the example
// fetches /tracez over HTTP and prints a recovered pulse's timeline
// (submitted → recovered, no "started" — the payload never re-ran).
//
// Run with: go run ./examples/xraydispatch
package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"

	"atmostonce"
	"atmostonce/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "xraydispatch:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		pulses   = 600
		preCrash = 350 // pulses delivered before session 1 dies
	)
	dir, err := os.MkdirTemp("", "xraydispatch-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// fired counts real X-ray gun activations per pulse, across both
	// sessions — any cell ever reaching 2 is a patient overdose.
	var fired [pulses]atomic.Int32
	plan := make([]atmostonce.Task, pulses)
	for i := range plan {
		plan[i].Fn = func(context.Context) error { fired[i].Add(1); return nil }
	}
	cfg := atmostonce.DispatcherConfig{
		Shards:          2,
		WorkersPerShard: 2,
		Backend:         "mmap:" + filepath.Join(dir, "regs"),
		MaxJobs:         2 * pulses,
	}

	// Session 1: the control host journals and delivers the first 350
	// pulses, then loses power. The journal rows are already on disk —
	// record-then-do means a recorded pulse either ran or never will.
	d1, err := atmostonce.NewDispatcher(cfg)
	if err != nil {
		return err
	}
	// Single sequential submits in BOTH sessions: deterministic job ids
	// come from deterministic submission order and placement, and that
	// is what lets a restart re-submit the plan and line up with the
	// journal (batch and single submission place jobs differently, so a
	// restart must re-submit the way the dead session submitted).
	for _, pulse := range plan[:preCrash] {
		if _, err := d1.Do(context.Background(), pulse); err != nil {
			return err
		}
	}
	d1.Flush()
	if err := d1.Close(); err != nil {
		return err
	}
	fmt.Printf("session 1: delivered %d / %d pulses, then crashed\n", preCrash, pulses)

	// Session 2: a replacement host reopens the register files and
	// re-submits the ENTIRE plan — it does not need to know how far the
	// dead session got. Full trace sampling + an ops endpoint make the
	// recovery observable.
	cfg.TraceSampleRate = 1
	cfg.MetricsAddr = "127.0.0.1:0"
	d2, err := atmostonce.NewDispatcher(cfg)
	if err != nil {
		return err
	}
	defer d2.Close()
	var recovered atomic.Int32
	var firstRecovered atomic.Uint64
	for _, pulse := range plan {
		pulse.Callback = func(r atmostonce.JobResult) {
			if r.Recovered {
				recovered.Add(1)
				firstRecovered.CompareAndSwap(0, r.ID)
			}
		}
		if _, err := d2.Do(context.Background(), pulse); err != nil {
			return err
		}
	}
	d2.Flush()

	overdoses := 0
	undelivered := 0
	for i := range fired {
		switch n := fired[i].Load(); {
		case n > 1:
			overdoses++
		case n == 0:
			undelivered++
		}
	}
	st := d2.Stats()
	fmt.Printf("session 2: re-submitted all %d pulses; %d resolved from the journal (Recovered), %d delivered fresh\n",
		pulses, recovered.Load(), pulses-int(recovered.Load())-undelivered)
	fmt.Printf("pulses undelivered:  %d\n", undelivered)
	fmt.Printf("double exposures:    %d\n", overdoses)

	if err := printRecoveredTimeline(d2.OpsAddr(), firstRecovered.Load()); err != nil {
		return err
	}
	if overdoses > 0 || st.Duplicates > 0 {
		return fmt.Errorf("SAFETY VIOLATION: a pulse fired twice")
	}
	if recovered.Load() != preCrash {
		return fmt.Errorf("recovered %d pulses from the journal, want %d", recovered.Load(), preCrash)
	}
	fmt.Println("at-most-once held across the crash: no patient overdose")
	return nil
}

// printRecoveredTimeline pulls the pulse's timeline from the session-2
// ops endpoint — /tracez?id=N serves just that job — and prints it: the
// trace must show the pulse resolving straight from the journal, never
// "started". Each event carries the incarnation that observed it
// (DESIGN.md §13); in this single-process session they all match.
func printRecoveredTimeline(addr string, id uint64) error {
	resp, err := http.Get(fmt.Sprintf("http://%s/tracez?id=%d", addr, id))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	doc, err := obs.ParseTracezDoc(body)
	if err != nil {
		return err
	}
	for _, j := range doc.Jobs {
		if j.ID != id {
			continue
		}
		fmt.Printf("\ntimeline of recovered pulse (job id %d, from /tracez?id=%d, incarnation %s):\n",
			j.ID, id, doc.Incarnation)
		for _, e := range j.Events {
			fmt.Printf("  +%8.1fµs  %-9s (shard %d)\n", e.TUs, e.Event, e.Shard)
			if e.Event == "started" {
				return fmt.Errorf("recovered pulse has a started event — payload re-ran")
			}
		}
		return nil
	}
	return fmt.Errorf("job %d not in /tracez at full sampling", id)
}
