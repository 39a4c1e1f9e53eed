package rtos

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestSchedulerConservation is the kernel's bookkeeping property: for any
// task set and scheduling policy,
//
//  1. per-CPU busy time never exceeds elapsed time;
//  2. busy time equals the execution charged to completed jobs plus work
//     still in flight;
//  3. response time of every job is at least its execution time.
func TestSchedulerConservation(t *testing.T) {
	prop := func(seeds [4]uint8, edf bool, quantumOn bool) bool {
		pol := FixedPriority
		if edf {
			pol = EarliestDeadlineFirst
		}
		quantum := time.Duration(-1)
		if quantumOn {
			quantum = 50 * time.Microsecond
		}
		k := NewKernel(Config{Timing: &noNoise, Seed: 1, Policy: pol, Quantum: quantum})
		var tasks []*Task
		for i, s := range seeds {
			exec := time.Duration(int(s%40)+1) * 10 * time.Microsecond // 10µs..400µs
			period := time.Duration(int(s%5)+1) * time.Millisecond
			task, err := k.CreateTask(TaskSpec{
				Name:     fmt.Sprintf("t%d", i),
				Type:     Periodic,
				Period:   period,
				Priority: int(s % 3), // collisions on purpose
				ExecTime: exec,
			})
			if err != nil {
				return false
			}
			if err := task.Start(); err != nil {
				return false
			}
			tasks = append(tasks, task)
		}
		const window = 100 * time.Millisecond
		if err := k.Run(window); err != nil {
			return false
		}
		busy, err := k.BusyTime(0)
		if err != nil {
			return false
		}
		if busy > window {
			t.Logf("busy %v > window %v", busy, window)
			return false
		}
		// Charged work: completed jobs × exec (exact, jitter disabled).
		var charged time.Duration
		for _, task := range tasks {
			st := task.Stats()
			charged += time.Duration(st.Jobs) * task.Spec().ExecTime
			if st.Jobs > 0 && st.Response.Min < int64(task.Spec().ExecTime) {
				t.Logf("%s response %d < exec %v", task.Name(), st.Response.Min, task.Spec().ExecTime)
				return false
			}
		}
		// busy may exceed charged by at most the in-flight job's partial
		// execution (bounded by the largest exec time).
		slack := busy - charged
		if slack < 0 || slack > 400*time.Microsecond {
			t.Logf("conservation broken: busy %v charged %v", busy, charged)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestNoLostJobsProperty: over a clean window, jobs completed + skips
// equals releases that occurred (no job vanishes in the scheduler).
func TestNoLostJobsProperty(t *testing.T) {
	prop := func(execRaw, periodRaw uint8, edf bool) bool {
		pol := FixedPriority
		if edf {
			pol = EarliestDeadlineFirst
		}
		k := NewKernel(Config{Timing: &noNoise, Seed: 3, Policy: pol})
		period := time.Duration(int(periodRaw%9)+1) * time.Millisecond
		exec := period * time.Duration(int(execRaw%10)+1) / 12 // up to ~92%
		task, err := k.CreateTask(TaskSpec{
			Name: "only", Type: Periodic, Period: period, ExecTime: exec,
		})
		if err != nil {
			return false
		}
		if err := task.Start(); err != nil {
			return false
		}
		// Run an exact number of periods plus the final job's drain time.
		const releases = 50
		if err := k.Run(time.Duration(releases-1)*period + exec + time.Microsecond); err != nil {
			return false
		}
		st := task.Stats()
		return st.Jobs+st.Skips == releases
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
