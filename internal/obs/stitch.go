package obs

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Cross-process trace stitching. A job deliberately crosses process
// boundaries in this system — journaled by a dispatcher, resolved from
// the journal by a successor — so one
// process's /tracez is only a fragment of the job's real history. The
// types here define the /tracez JSON document (opshttp renders it,
// anything can parse it back) and StitchTimelines merges documents from
// several processes into per-job forensic timelines.
//
// Merging is by wall clock, which on one host orders events to well
// under the lease TTLs that drive a failover; but crucially the
// at-most-once grammar does NOT depend on cross-process ordering being
// exact. "Started at most once" is a COUNT over the merged timeline, and
// per-incarnation rules (resolved is terminal, a recovered incarnation
// never starts the job) are checked within one process's records, which
// carry that process's own ordering. Clock skew can make a merged
// timeline read oddly; it cannot make a duplicate execution look legal.

// TracezEvent is one event of the /tracez JSON shape. TUs is
// microseconds since the (possibly merged) timeline's first event; TS
// and Inc are the wall-clock stamp and recording process's incarnation
// that make cross-process merging possible.
type TracezEvent struct {
	Event string  `json:"event"`
	Shard int32   `json:"shard"`
	TUs   float64 `json:"t_us"`
	TS    int64   `json:"ts_unix_nano"`
	Inc   string  `json:"inc"`
}

// TracezJob is one job's timeline in the /tracez JSON shape.
type TracezJob struct {
	ID     uint64        `json:"id"`
	Events []TracezEvent `json:"events"`
}

// TracezDoc is the full /tracez document: the serving process's
// incarnation plus every sampled job timeline.
type TracezDoc struct {
	Incarnation string      `json:"incarnation"`
	Jobs        []TracezJob `json:"jobs"`
}

// NewTracezDoc snapshots a tracer into the /tracez document shape. A nil
// tracer yields an empty (but valid) document.
func NewTracezDoc(tr *Tracer) TracezDoc {
	doc := TracezDoc{Incarnation: IncarnationString(), Jobs: []TracezJob{}}
	if tr == nil {
		return doc
	}
	for _, tl := range tr.Timelines() {
		j := TracezJob{ID: tl.ID, Events: make([]TracezEvent, len(tl.Events))}
		t0 := tl.Events[0].TS
		for i, e := range tl.Events {
			inc := e.Inc
			if inc == 0 {
				inc = incarnation
			}
			j.Events[i] = TracezEvent{
				Event: e.Event.String(),
				Shard: e.Shard,
				TUs:   float64(e.TS-t0) / 1e3,
				TS:    e.TS,
				Inc:   FormatIncarnation(inc),
			}
		}
		doc.Jobs = append(doc.Jobs, j)
	}
	return doc
}

// ParseTracezDoc decodes a /tracez response body.
func ParseTracezDoc(b []byte) (TracezDoc, error) {
	var doc TracezDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("obs: parsing tracez document: %w", err)
	}
	return doc, nil
}

// StitchTimelines merges /tracez documents from several processes into
// unified per-job timelines: events are grouped by the (already global)
// job id, ordered by wall-clock timestamp — ties keep document order, so
// records from one process never reorder against each other — and TUs is
// recomputed against the merged timeline's first event. Jobs are
// returned in order of their earliest event.
func StitchTimelines(docs ...TracezDoc) []TracezJob {
	byID := make(map[uint64]*TracezJob)
	order := make([]*TracezJob, 0, 64)
	for _, doc := range docs {
		for _, j := range doc.Jobs {
			tl := byID[j.ID]
			if tl == nil {
				tl = &TracezJob{ID: j.ID}
				byID[j.ID] = tl
				order = append(order, tl)
			}
			tl.Events = append(tl.Events, j.Events...)
		}
	}
	for _, tl := range order {
		sort.SliceStable(tl.Events, func(i, k int) bool { return tl.Events[i].TS < tl.Events[k].TS })
		t0 := tl.Events[0].TS
		for i := range tl.Events {
			tl.Events[i].TUs = float64(tl.Events[i].TS-t0) / 1e3
		}
	}
	sort.SliceStable(order, func(i, k int) bool {
		return order[i].Events[0].TS < order[k].Events[0].TS
	})
	out := make([]TracezJob, len(order))
	for i, tl := range order {
		out[i] = *tl
	}
	return out
}

// CheckStitched validates the at-most-once trace grammar on a merged,
// possibly multi-incarnation timeline:
//
//   - "started" appears at most once ACROSS incarnations — the paper's
//     guarantee itself, and a pure count, immune to clock skew;
//   - within one incarnation, "resolved", "expired" and "cancelled" are
//     terminal and appear at most once (a successor may legitimately resolve a job
//     its predecessor also resolved — each life re-runs the deterministic
//     stream — so the per-incarnation scope is the correct one);
//   - an incarnation that records "recovered" for the job never records
//     "started" for it: recovered jobs resolve from the journal, their
//     payload must not run again;
//   - "journaled" follows a "started" in the same incarnation
//     (record-then-do runs inside the worker).
//
// It assumes the timeline is complete (no ring wrap-around truncation).
func CheckStitched(j TracezJob) error {
	started := 0
	type incState struct {
		terminal  bool
		recovered bool
		started   bool
	}
	incs := make(map[string]*incState)
	for _, e := range j.Events {
		st := incs[e.Inc]
		if st == nil {
			st = &incState{}
			incs[e.Inc] = st
		}
		if st.terminal {
			return fmt.Errorf("job %d: event %q after a terminal event in incarnation %s", j.ID, e.Event, e.Inc)
		}
		switch e.Event {
		case "started":
			started++
			st.started = true
			if started > 1 {
				return fmt.Errorf("job %d: started %d times across incarnations (at-most-once violated)", j.ID, started)
			}
			if st.recovered {
				return fmt.Errorf("job %d: started in incarnation %s after it recovered the job", j.ID, e.Inc)
			}
		case "recovered":
			st.recovered = true
			if st.started {
				return fmt.Errorf("job %d: recovered in incarnation %s after it started the job", j.ID, e.Inc)
			}
		case "resolved", "expired", "cancelled":
			st.terminal = true
		case "journaled":
			if !st.started {
				return fmt.Errorf("job %d: journaled before started in incarnation %s", j.ID, e.Inc)
			}
		}
	}
	return nil
}

// Incarnations lists the distinct incarnation ids a merged timeline
// spans, in order of first appearance.
func (j TracezJob) Incarnations() []string {
	seen := make(map[string]bool)
	var out []string
	for _, e := range j.Events {
		if !seen[e.Inc] {
			seen[e.Inc] = true
			out = append(out, e.Inc)
		}
	}
	return out
}
