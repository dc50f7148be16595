// Package simclock provides the virtual-time substrate used by the SIAS
// simulation stack.
//
// The paper evaluates SIAS on wall-clock runs of 300-1800 seconds against
// real SSD RAIDs and HDDs. We reproduce those experiments on a discrete-event
// virtual clock: every simulated device operation returns the virtual time at
// which it completes, workers carry their own virtual "now", and shared
// resources (flash channels, a disk head) serialize requests in virtual time.
// This keeps multi-minute experiments deterministic and fast while preserving
// the queueing and latency arithmetic that produce the paper's shapes.
package simclock

import (
	"fmt"
	"sync"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is deliberately a distinct type from time.Time: virtual time
// never flows on its own, it only advances when simulated work is performed.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring time package conventions.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the time as fractional seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds reports the duration as fractional seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds reports the duration as fractional milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	}
	return fmt.Sprintf("%dns", int64(d))
}

func (t Time) String() string { return Duration(t).String() }

// Resource models a server pool in virtual time: a device with n parallel
// service units (flash channels, RAID spindles). Acquire picks the unit that
// frees up earliest, queues the request behind it and returns the completion
// time. It is safe for concurrent use by multiple workers.
type Resource struct {
	mu   sync.Mutex
	free []Time // per-unit next-free virtual time
}

// NewResource returns a resource with n parallel service units.
// n must be >= 1.
func NewResource(n int) *Resource {
	if n < 1 {
		panic("simclock: resource must have at least one unit")
	}
	return &Resource{free: make([]Time, n)}
}

// Acquire schedules a request arriving at virtual time `at` requiring
// `service` time on one unit, and returns the virtual completion time.
func (r *Resource) Acquire(at Time, service Duration) Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	best := 0
	for i, f := range r.free {
		if f < r.free[best] {
			best = i
		}
	}
	start := at
	if r.free[best] > start {
		start = r.free[best]
	}
	end := start.Add(service)
	r.free[best] = end
	return end
}

// Horizon reports the latest next-free time over all units: the virtual time
// at which the resource fully drains if no further requests arrive.
func (r *Resource) Horizon() Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	var h Time
	for _, f := range r.free {
		if f > h {
			h = f
		}
	}
	return h
}
