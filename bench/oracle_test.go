//go:build linux

package main

import (
	"strings"
	"testing"
)

// Each way a run can break at-most-once (or lose a job) must fail the
// oracle with a message that names the sequence number.
func TestOracleRejects(t *testing.T) {
	cases := []struct {
		name string
		feed func(o *oracle)
		want string
	}{
		{"duplicated sequence number", func(o *oracle) {
			o.Accepted(5)
			o.Ran(5)
			o.Ran(5)
			o.Done(5)
		}, "seq 5 ran twice"},
		{"missing completion", func(o *oracle) {
			o.Accepted(7)
			o.Ran(7)
		}, "seq 7 accepted but never completed"},
		{"second event for one id", func(o *oracle) {
			o.Accepted(3)
			o.Ran(3)
			o.Done(3)
			o.Done(3)
		}, "seq 3 completed twice"},
		{"re-execution after reopen", func(o *oracle) {
			o.Accepted(9)
			o.Ran(9)
			o.Done(9)
			o.Seal()
			o.Ran(9)
		}, "seq 9 re-executed after reopen"},
		{"completion nobody accepted", func(o *oracle) {
			o.Done(11)
		}, "seq 11 completed but was never accepted"},
		{"sequence number out of range", func(o *oracle) {
			o.Ran(64)
		}, "seq 64 ran but the run only issued 64"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := newOracle(64)
			// A clean neighbour must not mask or cause the failure.
			o.Accepted(1)
			o.Ran(1)
			o.Done(1)
			c.feed(o)
			err := o.Check()
			if err == nil {
				t.Fatalf("oracle accepted a run with a %s", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestOracleBoundsItsReport(t *testing.T) {
	o := newOracle(1024)
	for seq := uint64(0); seq < 100; seq++ {
		o.Accepted(seq)
	}
	err := o.Check()
	if err == nil || !strings.Contains(err.Error(), "and 92 more") {
		t.Fatalf("want 8 violations spelled out and 92 counted, got %v", err)
	}
}

// A miniature run of the real stream — dispatcher, generator, recorder —
// passes the oracle and completes every job.
func TestOracleAcceptsCleanRun(t *testing.T) {
	const jobs = 5000
	orc := newOracle(jobs)
	rec := newRecorder(true, 1, jobs)
	rec.arm(0, jobs)
	d, err := newDispatcher(dispatcherConfig{Shards: shards, WorkersPerShard: workersShard, MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st := newStreamer(orc, rec)
	if err := st.submit(d, 0, jobs); err != nil {
		t.Fatal(err)
	}
	if err := orc.Check(); err != nil {
		t.Fatal(err)
	}
	if got := count(orc.done); got != jobs {
		t.Fatalf("%d of %d jobs completed", got, jobs)
	}
	if b := rec.stages(); b.Jobs != jobs {
		t.Fatalf("%d of %d jobs carry all five stamps", b.Jobs, jobs)
	}
}
