//go:build linux

package main

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
)

// oracle is the at-most-once reference every workload is checked against.
// It is independent of the program under test: jobs are keyed by the
// sequence number the generator gave them, and the oracle sees only three
// events — the generator had a job accepted, the benchmark-owned payload
// of a job started, and the submitter saw a job complete.
//
// It fails when a payload runs twice (before or after a reopen), when a
// job completes twice, when an accepted job never completes, and when a
// completion arrives for a job that was never accepted. Every message
// names the sequence number.
type oracle struct {
	n        uint64
	accepted []atomic.Uint64
	ran      []atomic.Uint64
	done     []atomic.Uint64
	sealed   atomic.Bool

	mu    sync.Mutex
	errs  []string
	nerrs int
}

// maxOracleErrs bounds the violations kept verbatim; the rest are counted.
const maxOracleErrs = 8

func newOracle(n int) *oracle {
	words := (n + 63) / 64
	return &oracle{
		n:        uint64(n),
		accepted: make([]atomic.Uint64, words),
		ran:      make([]atomic.Uint64, words),
		done:     make([]atomic.Uint64, words),
	}
}

func (o *oracle) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.nerrs++
	if len(o.errs) < maxOracleErrs {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// mark sets seq's bit and reports whether it was already set.
func (o *oracle) mark(set []atomic.Uint64, seq uint64, what string) (was, ok bool) {
	if seq >= o.n {
		o.fail("seq %d %s but the run only issued %d sequence numbers", seq, what, o.n)
		return false, false
	}
	m := uint64(1) << (seq & 63)
	return set[seq>>6].Or(m)&m != 0, true
}

// Accepted records that the program took responsibility for seq.
func (o *oracle) Accepted(seq uint64) { o.mark(o.accepted, seq, "was accepted") }

// Ran is called as the first instruction of seq's payload.
func (o *oracle) Ran(seq uint64) {
	if was, ok := o.mark(o.ran, seq, "ran"); ok && was {
		if o.sealed.Load() {
			o.fail("seq %d re-executed after reopen", seq)
		} else {
			o.fail("seq %d ran twice", seq)
		}
	}
}

// Done is called when the submitter sees seq complete.
func (o *oracle) Done(seq uint64) {
	if was, ok := o.mark(o.done, seq, "completed"); ok && was {
		o.fail("seq %d completed twice", seq)
	}
}

// Seal marks a reopen of the store: every payload that runs from now on
// for a sequence number that already ran is a recovery failure.
func (o *oracle) Seal() { o.sealed.Store(true) }

// Check reports every violation seen so far plus, for the sequence
// numbers issued, the accepted jobs that never completed and the
// completions and executions nobody was told were accepted.
func (o *oracle) Check() error {
	for w := range o.accepted {
		acc, ran, done := o.accepted[w].Load(), o.ran[w].Load(), o.done[w].Load()
		for bad := acc &^ done; bad != 0; bad &= bad - 1 {
			o.fail("seq %d accepted but never completed", uint64(w)*64+uint64(bits.TrailingZeros64(bad)))
		}
		for bad := done &^ acc; bad != 0; bad &= bad - 1 {
			o.fail("seq %d completed but was never accepted", uint64(w)*64+uint64(bits.TrailingZeros64(bad)))
		}
		for bad := ran &^ acc; bad != 0; bad &= bad - 1 {
			o.fail("seq %d ran but was never accepted", uint64(w)*64+uint64(bits.TrailingZeros64(bad)))
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.nerrs == 0 {
		return nil
	}
	msg := strings.Join(o.errs, "; ")
	if o.nerrs > len(o.errs) {
		msg += fmt.Sprintf("; and %d more", o.nerrs-len(o.errs))
	}
	return errors.New("oracle: " + msg)
}

// count returns how many sequence numbers are in the set.
func count(set []atomic.Uint64) uint64 {
	var n uint64
	for i := range set {
		n += uint64(bits.OnesCount64(set[i].Load()))
	}
	return n
}
