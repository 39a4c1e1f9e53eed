package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// oracleEvent is one entry of the reference queue: a plain list sorted by
// (at, seq) on every pop, the order the clock's heap must reproduce.
type oracleEvent struct {
	at     Time
	seq    uint64
	id     int
	child  Duration // >= 0: firing schedules a child this far ahead
	cancel bool
	fired  bool
}

// oracleClock is the reference model of Clock used by the differential
// test: no heap, no lazy cancellation, no free list.
type oracleClock struct {
	now     Time
	nextSeq uint64
	queue   []*oracleEvent
	fired   []int
	nextID  int
}

func (o *oracleClock) schedule(at Time, id int, child Duration) *oracleEvent {
	e := &oracleEvent{at: at, seq: o.nextSeq, id: id, child: child}
	o.nextSeq++
	o.queue = append(o.queue, e)
	return e
}

// oracleID hands out the ids of top-level events: 0, 1, 2, ...
func oracleID(o *oracleClock) int {
	o.nextID++
	return o.nextID - 1
}

// childID is the id of the child an event schedules when it fires; it is
// negative, so it never collides with a top-level id.
func childID(parent int) int { return -parent - 1 }

// run fires every live event strictly before t in (at, seq) order;
// inclusive also fires events due exactly at t. The clock then stands at
// t.
func (o *oracleClock) run(t Time, inclusive bool) {
	for {
		e := o.min()
		if e == nil || e.at > t || (!inclusive && e.at == t) {
			break
		}
		o.fire(e)
	}
	if t > o.now {
		o.now = t
	}
}

// step fires the single earliest live event, if any.
func (o *oracleClock) step() {
	if e := o.min(); e != nil {
		o.fire(e)
	}
}

// min drops cancelled entries, sorts the rest by (at, seq) and returns
// the first, or nil when none is left.
func (o *oracleClock) min() *oracleEvent {
	live := o.queue[:0]
	for _, e := range o.queue {
		if !e.cancel {
			live = append(live, e)
		}
	}
	o.queue = live
	sort.Slice(o.queue, func(i, j int) bool {
		if o.queue[i].at != o.queue[j].at {
			return o.queue[i].at < o.queue[j].at
		}
		return o.queue[i].seq < o.queue[j].seq
	})
	if len(o.queue) == 0 {
		return nil
	}
	return o.queue[0]
}

func (o *oracleClock) fire(e *oracleEvent) {
	o.queue = o.queue[1:]
	e.fired = true
	o.now = e.at
	o.fired = append(o.fired, e.id)
	if e.child >= 0 {
		o.schedule(o.now.Add(e.child), childID(e.id), -1)
	}
}

func (o *oracleClock) next() Time {
	best := Infinity
	for _, e := range o.queue {
		if !e.cancel && e.at < best {
			best = e.at
		}
	}
	return best
}

// TestClockHeapMatchesOracle drives the clock through a seeded random mix
// of Schedule, Cancel, forced compaction, RunBefore, RunUntil and Step —
// with handlers that schedule children, some at the current instant — and
// checks the firing order, pending count and next event time against the
// sorted-list oracle after every operation.
func TestClockHeapMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := NewClock()
		var got []int
		o := &oracleClock{}
		type pair struct {
			ev *Event
			oe *oracleEvent
		}
		var handles []pair

		// add schedules event id on the clock; its handler records the id
		// and schedules the same child the oracle's fire does.
		var add func(at Time, id int, child Duration) *Event
		add = func(at Time, id int, child Duration) *Event {
			ev, err := c.Schedule(at, "diff", func(now Time) {
				got = append(got, id)
				if child >= 0 {
					add(now.Add(child), childID(id), -1)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			return ev
		}
		schedule := func(at Time, child Duration) {
			oe := o.schedule(at, oracleID(o), child)
			handles = append(handles, pair{add(at, oe.id, child), oe})
		}

		for op := 0; op < 4000; op++ {
			switch k := r.Intn(100); {
			case k < 45:
				// Coarse times make equal-time ties common.
				at := c.Now().Add(Duration(r.Intn(20) * 10))
				child := Duration(-1)
				if r.Intn(4) == 0 {
					child = Duration(r.Intn(3) * 10) // 0: same instant
				}
				schedule(at, child)
			case k < 70:
				if len(handles) > 0 {
					p := handles[r.Intn(len(handles))]
					if !p.ev.Pending() {
						t.Fatalf("seed %d op %d: live event %d not pending", seed, op, p.oe.id)
					}
					p.oe.cancel = true
					p.ev.Cancel()
				}
			case k < 72:
				c.compact()
			case k < 90:
				tb := c.Now().Add(Duration(r.Intn(60)))
				if err := c.RunBefore(tb); err != nil {
					t.Fatal(err)
				}
				o.run(tb, false)
			case k < 97:
				tu := c.Now().Add(Duration(r.Intn(60)))
				if err := c.RunUntil(tu); err != nil {
					t.Fatal(err)
				}
				o.run(tu, true)
			default:
				c.Step()
				o.step()
			}
			// The clock recycles fired and cancelled events, possibly
			// into a child scheduled since; forget their handles.
			kept := handles[:0]
			for _, p := range handles {
				if !p.oe.fired && !p.oe.cancel {
					kept = append(kept, p)
				}
			}
			handles = kept

			if len(got) != len(o.fired) {
				t.Fatalf("seed %d op %d: fired %d events, oracle %d", seed, op, len(got), len(o.fired))
			}
			for i := range got {
				if got[i] != o.fired[i] {
					t.Fatalf("seed %d op %d: firing %d is event %d, oracle says %d", seed, op, i, got[i], o.fired[i])
				}
			}
			if c.Now() != o.now {
				t.Fatalf("seed %d op %d: now %v, oracle %v", seed, op, c.Now(), o.now)
			}
			live := 0
			for _, e := range o.queue {
				if !e.cancel {
					live++
				}
			}
			if c.Pending() != live {
				t.Fatalf("seed %d op %d: pending %d, oracle %d", seed, op, c.Pending(), live)
			}
			if c.NextEventTime() != o.next() {
				t.Fatalf("seed %d op %d: next event %v, oracle %v", seed, op, c.NextEventTime(), o.next())
			}
		}
		if len(got) < 1000 {
			t.Fatalf("seed %d: only %d events fired; the mix exercises too little", seed, len(got))
		}
	}
}
