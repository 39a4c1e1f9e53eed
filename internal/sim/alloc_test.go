package sim

import "testing"

// nopHandler is package-level so taking its reference never captures
// loop state.
func nopHandler(Time) {}

// TestScheduleStepAllocFree proves the hot path of the event loop —
// Schedule followed by Step — allocates nothing once the Event pool is
// warm. This is the property the whole simulation's throughput rests on.
func TestScheduleStepAllocFree(t *testing.T) {
	c := NewClock()
	// Warm the pool: one event cycling through schedule/fire seeds the
	// free list.
	if _, err := c.Schedule(c.Now()+1, "warm", nopHandler); err != nil {
		t.Fatal(err)
	}
	c.Step()

	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := c.Schedule(c.Now()+1, "tick", nopHandler); err != nil {
			t.Fatal(err)
		}
		if !c.Step() {
			t.Fatal("no event fired")
		}
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Step allocated %.2f objects per cycle, want 0", allocs)
	}
}

// TestCancelCollectAllocFree proves the cancel-and-collect path recycles
// through the pool too: scheduling, cancelling, and sweeping past the
// dead entry allocates nothing in steady state.
func TestCancelCollectAllocFree(t *testing.T) {
	c := NewClock()
	for i := 0; i < 4; i++ { // warm the pool with a few structs
		if _, err := c.Schedule(c.Now()+1, "warm", nopHandler); err != nil {
			t.Fatal(err)
		}
	}
	for c.Step() {
	}

	allocs := testing.AllocsPerRun(1000, func() {
		ev, err := c.Schedule(c.Now()+1, "doomed", nopHandler)
		if err != nil {
			t.Fatal(err)
		}
		live, err := c.Schedule(c.Now()+2, "live", nopHandler)
		if err != nil {
			t.Fatal(err)
		}
		ev.Cancel()
		if !c.Step() { // skips the corpse, fires live
			t.Fatal("no event fired")
		}
		if live.Pending() {
			t.Fatal("live event still pending after step")
		}
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Cancel+Step allocated %.2f objects per cycle, want 0", allocs)
	}
}

// BenchmarkClockHold measures the classic hold model at the queue depth
// of the steady benchmark workload (about two thousand periodic release
// events): each iteration fires the earliest event, whose handler
// re-schedules itself one pseudo-random period later.
func BenchmarkClockHold(b *testing.B) {
	const depth = 2048
	c := NewClock()
	r := NewRand(1)
	var h Handler
	h = func(now Time) {
		if _, err := c.Schedule(now+Time(500_000+r.Int63n(1_000_000)), "hold", h); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < depth; i++ {
		if _, err := c.Schedule(Time(r.Int63n(1_000_000)), "hold", h); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}
