package rtos

import (
	"testing"
	"time"
)

// lastJobIndex is written by countingBody; package-level so the body
// captures nothing.
var lastJobIndex uint64

func countingBody(j *JobContext) { lastJobIndex = j.Index }

// TestDispatchCycleAllocFree proves a full periodic dispatch cycle —
// release, dispatch, body call, completion, next-release arming —
// allocates nothing once the event and job pools are warm and the stats
// buffers are reserved. This pins the steady-state allocation-free
// property the throughput benchmarks measure. One task has no body and
// one has a body, whose JobContext the kernel must not allocate per job.
func TestDispatchCycleAllocFree(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	var tasks []*Task
	for _, spec := range []TaskSpec{
		{Name: "tick", Type: Periodic, Period: time.Millisecond, ExecTime: 30 * time.Microsecond},
		{Name: "body", Type: Periodic, Period: time.Millisecond, ExecTime: 20 * time.Microsecond,
			Priority: 1, Body: countingBody},
	} {
		task, err := k.CreateTask(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := task.Start(); err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	// Warm-up: fills the Event and job free lists and the heap's backing
	// array; then reserve room for the measured jobs' samples.
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if lastJobIndex == 0 {
		t.Fatal("task body never ran")
	}
	for _, task := range tasks {
		task.ReserveStats(2000)
	}

	allocs := testing.AllocsPerRun(500, func() {
		if err := k.Run(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("periodic dispatch cycle allocated %.2f objects per period, want 0", allocs)
	}
}
