package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock Now = %v, want 0", c.Now())
	}
	if c.Pending() != 0 {
		t.Fatalf("zero clock Pending = %d, want 0", c.Pending())
	}
	if c.Step() {
		t.Fatal("Step on empty clock reported an event")
	}
}

func TestScheduleAndRun(t *testing.T) {
	c := NewClock()
	var order []string
	mk := func(name string) Handler {
		return func(Time) { order = append(order, name) }
	}
	if _, err := c.Schedule(30, "c", mk("c")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Schedule(10, "a", mk("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Schedule(20, "b", mk("b")); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if c.Now() != 100 {
		t.Fatalf("Now = %v, want 100", c.Now())
	}
}

func TestEqualTimeEventsFireInScheduleOrder(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := c.Schedule(5, "e", func(Time) { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestSchedulePastRejected(t *testing.T) {
	c := NewClock()
	if _, err := c.Schedule(10, "x", func(Time) {}); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Schedule(20, "late", func(Time) {}); err == nil {
		t.Fatal("scheduling in the past succeeded")
	}
}

func TestScheduleNilHandlerRejected(t *testing.T) {
	c := NewClock()
	if _, err := c.Schedule(1, "nil", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestAfterNegativeRejected(t *testing.T) {
	c := NewClock()
	if _, err := c.After(-time.Nanosecond, "neg", func(Time) {}); err == nil {
		t.Fatal("negative delay accepted")
	}
}

func TestCancel(t *testing.T) {
	c := NewClock()
	fired := false
	e, err := c.Schedule(10, "x", func(Time) { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if !e.Pending() {
		t.Fatal("event not pending after schedule")
	}
	e.Cancel()
	if e.Pending() {
		t.Fatal("event pending after cancel")
	}
	e.Cancel() // idempotent
	if err := c.Drain(0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelOneOfEqualTime(t *testing.T) {
	c := NewClock()
	var got []string
	e1, _ := c.Schedule(10, "a", func(Time) { got = append(got, "a") })
	if _, err := c.Schedule(10, "b", func(Time) { got = append(got, "b") }); err != nil {
		t.Fatal(err)
	}
	e1.Cancel()
	if err := c.Drain(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("got %v, want [b]", got)
	}
}

func TestHandlerSchedulesMore(t *testing.T) {
	c := NewClock()
	count := 0
	var tick Handler
	tick = func(now Time) {
		count++
		if count < 5 {
			if _, err := c.Schedule(now.Add(10), "tick", tick); err != nil {
				t.Errorf("reschedule: %v", err)
			}
		}
	}
	if _, err := c.Schedule(0, "tick", tick); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(0); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if c.Now() != 40 {
		t.Fatalf("Now = %v, want 40", c.Now())
	}
}

func TestRunUntilStopsBeforeLaterEvents(t *testing.T) {
	c := NewClock()
	fired := false
	if _, err := c.Schedule(100, "late", func(Time) { fired = true }); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event after deadline fired")
	}
	if c.Now() != 50 {
		t.Fatalf("Now = %v, want 50", c.Now())
	}
	if err := c.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event at deadline did not fire")
	}
}

func TestDrainLimit(t *testing.T) {
	c := NewClock()
	var tick Handler
	tick = func(now Time) {
		_, _ = c.Schedule(now.Add(1), "tick", tick)
	}
	if _, err := c.Schedule(0, "tick", tick); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(1000); err == nil {
		t.Fatal("runaway drain not detected")
	}
}

func TestRunForNegative(t *testing.T) {
	c := NewClock()
	if err := c.RunFor(-1); err == nil {
		t.Fatal("negative RunFor accepted")
	}
}

func TestReentrantRunRejected(t *testing.T) {
	c := NewClock()
	var inner error
	if _, err := c.Schedule(1, "outer", func(Time) {
		inner = c.RunUntil(100)
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if inner != ErrReentrantRun {
		t.Fatalf("inner run err = %v, want ErrReentrantRun", inner)
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(1500).String(); got != "1.5µs" {
		t.Fatalf("Time(1500).String() = %q", got)
	}
	if got := Infinity.String(); got != "+inf" {
		t.Fatalf("Infinity.String() = %q", got)
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(100)
	if a.Add(50) != Time(150) {
		t.Fatal("Add broken")
	}
	if Time(150).Sub(a) != 50 {
		t.Fatal("Sub broken")
	}
}

// Property: for any set of offsets, events fire in non-decreasing time
// order and the clock never runs backwards.
func TestEventOrderingProperty(t *testing.T) {
	prop := func(offsets []uint16) bool {
		c := NewClock()
		var last Time = -1
		ok := true
		for _, off := range offsets {
			at := Time(off)
			if _, err := c.Schedule(at, "p", func(now Time) {
				if now < last {
					ok = false
				}
				last = now
			}); err != nil {
				return false
			}
		}
		if err := c.Drain(0); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
