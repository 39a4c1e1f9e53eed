// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual nanosecond clock, an event queue with stable ordering, and
// seedable pseudo-random streams.
//
// Everything above it in this repository (the simulated RTAI kernel, the
// DRCR runtime, the benchmark harness) advances time exclusively through
// this package, which makes every experiment reproducible bit-for-bit from
// its seed.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts trivially
// to and from time.Duration, which is also nanosecond-based.
type Duration = time.Duration

// Infinity is a sentinel time later than any schedulable event.
const Infinity Time = math.MaxInt64

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time as a duration since simulation start.
func (t Time) String() string {
	if t == Infinity {
		return "+inf"
	}
	return Duration(t).String()
}

// Handler is a callback run when an event fires. The handler may schedule
// further events on the same clock.
type Handler func(now Time)

// Event is a scheduled occurrence. The zero Event is invalid; obtain events
// through Clock.Schedule.
//
// An Event handle is live from Schedule until the event fires or its
// cancellation is collected; the clock then recycles the struct for later
// Schedule calls, so holders must drop their reference at fire time (every
// dispatcher in this repository nils its field first thing in the handler).
type Event struct {
	at      Time
	fn      Handler
	queued  bool // in the queue (live or lazily cancelled)
	cancel  bool
	label   string
	onClock *Clock
	free    *Event // free-list link while recycled
}

// Time reports when the event is (or was) due.
func (e *Event) Time() Time { return e.at }

// Label reports the diagnostic label given at schedule time.
func (e *Event) Label() string { return e.label }

// Pending reports whether the event is still queued and not cancelled.
func (e *Event) Pending() bool { return e != nil && e.queued && !e.cancel }

// Cancel removes the event from its queue. Cancelling an already-fired or
// already-cancelled event is a no-op.
//
// Cancellation is lazy: the event is only marked dead and skipped (and its
// struct recycled) when the queue reaches it, so Cancel is O(1) instead of
// an O(log n) heap removal. A compaction pass keeps the queue from
// accumulating dead entries under cancel-heavy workloads.
func (e *Event) Cancel() {
	if e == nil || e.cancel || !e.queued || e.onClock == nil {
		return
	}
	e.cancel = true
	c := e.onClock
	c.cancelled++
	if c.cancelled > compactThreshold && c.cancelled > len(c.queue)/2 {
		c.compact()
	}
}

// compactThreshold is the minimum number of dead entries before a Cancel
// triggers queue compaction (and dead entries must also outnumber live
// ones). Small queues never compact; the per-pop skip handles them.
const compactThreshold = 64

// eventQueue is a binary min-heap ordered by (time, seq). Each slot
// carries its sort key inline, so a comparison reads two words from the
// slot array and never dereferences the Event; events do not track their
// heap position (lazy cancellation needs only the queued flag). A 4-ary
// layout measured no faster (BenchmarkClockHold).
type eventQueue []slot

// slot is one queue entry: the event's due time, its tie-breaking
// schedule sequence number, and the event itself.
type slot struct {
	at  Time
	seq uint64 // tie-break so equal-time events fire in schedule order
	ev  *Event
}

func (a slot) less(b slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts s, sifting it up from the tail.
func (q *eventQueue) push(s slot) {
	h := append(*q, s)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = s
	*q = h
}

// pop removes and returns the minimum event.
func (q *eventQueue) pop() *Event {
	h := *q
	top := h[0].ev
	n := len(h) - 1
	last := h[n]
	h[n] = slot{}
	h = h[:n]
	if n > 0 {
		h.down(0, last)
	}
	*q = h
	top.queued = false
	return top
}

// down places s at or below position i, moving smaller children up.
func (q eventQueue) down(i int, s slot) {
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].less(q[c]) {
			c = r
		}
		if !q[c].less(s) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = s
}

// heapify establishes heap order over the whole slice.
func (q eventQueue) heapify() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i, q[i])
	}
}

// Clock is a discrete-event virtual clock. The zero value is ready to use
// at time zero. Clock is not safe for concurrent use; the simulation is
// single-threaded by design.
type Clock struct {
	now       Time
	queue     eventQueue
	nextSeq   uint64
	fired     uint64
	running   bool
	cancelled int    // dead entries still sitting in queue (lazy cancel)
	freeList  *Event // recycled Event structs, linked through Event.free
	freeLen   int
}

// freeListMax bounds the free list so a one-off scheduling burst does not
// pin its peak event count in memory forever.
const freeListMax = 1024

// ErrReentrantRun is returned when Run variants are invoked from inside an
// event handler.
var ErrReentrantRun = errors.New("sim: reentrant clock run")

// initialQueueCap pre-sizes the event heap so steady-state scheduling
// never grows the backing array.
const initialQueueCap = 128

// NewClock returns a clock at time zero.
func NewClock() *Clock {
	return &Clock{queue: make(eventQueue, 0, initialQueueCap)}
}

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Pending reports the number of queued events.
func (c *Clock) Pending() int { return len(c.queue) - c.cancelled }

// Fired reports the total number of events executed so far.
func (c *Clock) Fired() uint64 { return c.fired }

// NextEventTime reports the due time of the earliest pending (not
// cancelled) event, or Infinity when the queue is empty. Conservative
// parallel execution uses it to compute the horizon a clock may safely
// advance to.
func (c *Clock) NextEventTime() Time {
	if e := c.peek(); e != nil {
		return e.at
	}
	return Infinity
}

// Schedule queues fn to run at absolute time at. Scheduling in the past
// (before Now) is an error; scheduling exactly at Now is allowed and the
// event runs on the next step. The label is for diagnostics only.
func (c *Clock) Schedule(at Time, label string, fn Handler) (*Event, error) {
	if fn == nil {
		return nil, errors.New("sim: nil handler")
	}
	if at < c.now {
		return nil, fmt.Errorf("sim: schedule %q at %v before now %v", label, at, c.now)
	}
	e := c.alloc()
	e.at, e.fn, e.label, e.onClock, e.queued = at, fn, label, c, true
	c.queue.push(slot{at: at, seq: c.nextSeq, ev: e})
	c.nextSeq++
	return e, nil
}

// alloc takes an Event from the free list, falling back to the heap
// allocator only when the list is dry; in steady state every fired event
// is recycled and Schedule allocates nothing.
func (c *Clock) alloc() *Event {
	if e := c.freeList; e != nil {
		c.freeList = e.free
		c.freeLen--
		e.free = nil
		return e
	}
	return &Event{}
}

// recycle returns a dead (fired or collected-cancelled) event to the free
// list. Handler and label references are dropped immediately so recycled
// events never pin user closures.
func (c *Clock) recycle(e *Event) {
	e.fn = nil
	e.label = ""
	e.cancel = false
	e.queued = false
	if c.freeLen >= freeListMax {
		return // let the GC take the overflow
	}
	e.free = c.freeList
	c.freeList = e
	c.freeLen++
}

// compact rebuilds the queue without its dead entries, recycling them.
// Heap order is re-established from the strict (time, seq) total order, so
// the pop sequence is unchanged.
func (c *Clock) compact() {
	live := c.queue[:0]
	for _, s := range c.queue {
		if s.ev.cancel {
			c.recycle(s.ev)
		} else {
			live = append(live, s)
		}
	}
	clear(c.queue[len(live):])
	c.queue = live
	c.cancelled = 0
	c.queue.heapify()
}

// After queues fn to run d from now. Negative d is an error.
func (c *Clock) After(d Duration, label string, fn Handler) (*Event, error) {
	if d < 0 {
		return nil, fmt.Errorf("sim: negative delay %v for %q", d, label)
	}
	return c.Schedule(c.now.Add(d), label, fn)
}

// Step fires the single earliest pending event, advancing the clock to its
// time. It reports whether an event fired.
func (c *Clock) Step() bool {
	for len(c.queue) > 0 {
		e := c.queue.pop()
		if e.cancel {
			c.cancelled--
			c.recycle(e)
			continue
		}
		c.now = e.at
		c.fired++
		fn := e.fn
		e.fn = nil
		fn(c.now)
		// Recycle after the handler so the struct cannot be reused while
		// its own firing is still on the stack.
		c.recycle(e)
		return true
	}
	return false
}

// RunUntil fires events in order until the queue is empty or the next event
// is strictly after deadline, then advances the clock to deadline.
func (c *Clock) RunUntil(deadline Time) error {
	if c.running {
		return ErrReentrantRun
	}
	if deadline < c.now {
		return fmt.Errorf("sim: deadline %v before now %v", deadline, c.now)
	}
	c.running = true
	defer func() { c.running = false }()
	for len(c.queue) > 0 {
		next := c.peek()
		if next == nil {
			break
		}
		if next.at > deadline {
			break
		}
		c.Step()
	}
	if deadline > c.now && deadline != Infinity {
		c.now = deadline
	}
	return nil
}

// RunBefore fires events in order while they are strictly before t, then
// advances the clock to t without firing anything due exactly at t.
// Sharded kernels use it to realise the "control events first" tie rule
// at lookahead barriers: a shard clock is brought up to the barrier
// instant while events scheduled exactly at the barrier stay queued for
// the next window.
func (c *Clock) RunBefore(t Time) error {
	if c.running {
		return ErrReentrantRun
	}
	if t < c.now {
		return fmt.Errorf("sim: barrier %v before now %v", t, c.now)
	}
	c.running = true
	defer func() { c.running = false }()
	for {
		next := c.peek()
		if next == nil || next.at >= t {
			break
		}
		c.Step()
	}
	if t > c.now && t != Infinity {
		c.now = t
	}
	return nil
}

// RunFor advances the clock by d, firing all events due in the window.
func (c *Clock) RunFor(d Duration) error {
	if d < 0 {
		return fmt.Errorf("sim: negative run duration %v", d)
	}
	return c.RunUntil(c.now.Add(d))
}

// Drain fires every pending event. It guards against runaway simulations
// with maxEvents; zero means no limit.
func (c *Clock) Drain(maxEvents uint64) error {
	if c.running {
		return ErrReentrantRun
	}
	c.running = true
	defer func() { c.running = false }()
	var n uint64
	for c.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			return fmt.Errorf("sim: drain exceeded %d events", maxEvents)
		}
	}
	return nil
}

func (c *Clock) peek() *Event {
	for len(c.queue) > 0 {
		e := c.queue[0].ev
		if !e.cancel {
			return e
		}
		c.queue.pop()
		c.cancelled--
		c.recycle(e)
	}
	return nil
}
