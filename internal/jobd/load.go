package jobd

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// LoadOptions configures RunLoad, the load-generator harness behind
// `amo-jobd -load` and the many-connection soak.
type LoadOptions struct {
	// Addr is the server to hammer. Required.
	Addr string
	// Conns is the number of concurrent client connections (default 16).
	Conns int
	// Jobs is the submissions per connection (default 100).
	Jobs int
	// Tenants are cycled through round-robin per connection (default
	// ["load"]).
	Tenants []string
	// Task and Version name the registered task to submit (default
	// "noop" v1).
	Task    string
	Version uint32
	// PayloadSize pads each submission's payload to this many bytes
	// (the first 8 carry the submission's sequence number).
	PayloadSize int
	// HighEvery makes every Nth submission High priority (0 = never).
	HighEvery int
	// Subscribe adds one extra connection subscribed to every tenant,
	// and the run waits (up to DrainTimeout) until it has seen a
	// completion event for every accepted job.
	Subscribe bool
	// DrainTimeout bounds the post-submission completion wait
	// (default 30s).
	DrainTimeout time.Duration
}

// LoadReport is RunLoad's outcome.
type LoadReport struct {
	Conns     int
	Submitted int
	Accepted  uint64
	Quota     uint64 // rejections that, by contract, burned no job ids
	Capacity  uint64
	Failed    uint64 // transport or unexpected server errors
	Events    uint64 // completion events observed (Subscribe only)
	Reads     uint64 // socket Reads of the run's connections, the subscriber's included
	Writes    uint64 // socket Writes of the same
	Elapsed   time.Duration
}

// Throughput is accepted submissions per second.
func (r LoadReport) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Accepted) / r.Elapsed.Seconds()
}

func (r LoadReport) String() string {
	return fmt.Sprintf("conns=%d submitted=%d accepted=%d quota=%d capacity=%d failed=%d events=%d elapsed=%s throughput=%.0f/s",
		r.Conns, r.Submitted, r.Accepted, r.Quota, r.Capacity, r.Failed, r.Events, r.Elapsed.Round(time.Millisecond), r.Throughput())
}

// RunLoad opens o.Conns pipelined connections and pushes o.Jobs
// submissions down each. Quota and capacity rejections are expected
// outcomes (that is what admission control is for) and are counted, not
// failed.
func RunLoad(o LoadOptions) (LoadReport, error) {
	if o.Addr == "" {
		return LoadReport{}, fmt.Errorf("jobd: LoadOptions.Addr is required")
	}
	if o.Conns == 0 {
		o.Conns = 16
	}
	if o.Jobs == 0 {
		o.Jobs = 100
	}
	if len(o.Tenants) == 0 {
		o.Tenants = []string{"load"}
	}
	if o.Task == "" {
		o.Task = "noop"
		if o.Version == 0 {
			o.Version = 1
		}
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 30 * time.Second
	}

	var rep LoadReport
	rep.Conns = o.Conns
	rep.Submitted = o.Conns * o.Jobs
	var accepted, quota, capacity, failed, events, reads, writes atomic.Uint64
	tally := func(c *Client) {
		ws := c.WireStats()
		reads.Add(ws.Reads)
		writes.Add(ws.Writes)
	}

	var sub *Client
	if o.Subscribe {
		var err error
		sub, err = Dial(o.Addr, ClientOptions{Name: "load-subscriber", Redial: true})
		if err != nil {
			return rep, fmt.Errorf("jobd: load subscriber dial: %w", err)
		}
		defer sub.Close()
		for _, t := range o.Tenants {
			if err := sub.Subscribe(t, func(Event) { events.Add(1) }); err != nil {
				return rep, fmt.Errorf("jobd: load subscribe %q: %w", t, err)
			}
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < o.Conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(o.Addr, ClientOptions{Name: fmt.Sprintf("load-%d", g)})
			if err != nil {
				failed.Add(uint64(o.Jobs))
				return
			}
			defer c.Close()
			defer tally(c)
			payload := make([]byte, max(8, o.PayloadSize))
			for i := 0; i < o.Jobs; i++ {
				tenant := o.Tenants[(g+i)%len(o.Tenants)]
				var so SubmitOptions
				if o.HighEvery > 0 && i%o.HighEvery == 0 {
					so.Priority = PriorityHigh
				}
				seq := uint64(g)*uint64(o.Jobs) + uint64(i)
				putCell(payload, int64(seq))
				_, err := c.Submit(tenant, o.Task, o.Version, payload, so)
				switch {
				case err == nil:
					accepted.Add(1)
				case IsQuota(err):
					quota.Add(1)
				case IsCapacity(err):
					capacity.Add(1)
				default:
					failed.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)

	if o.Subscribe {
		deadline := time.Now().Add(o.DrainTimeout)
		for events.Load() < accepted.Load() && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		tally(sub)
	}
	rep.Reads, rep.Writes = reads.Load(), writes.Load()
	rep.Accepted = accepted.Load()
	rep.Quota = quota.Load()
	rep.Capacity = capacity.Load()
	rep.Failed = failed.Load()
	rep.Events = events.Load()
	return rep, nil
}
