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
//  2. every task's charged execution is exactly its completed jobs'
//     execution plus the partial execution of its in-flight job, and each
//     CPU's busy time is exactly the sum of its tasks' charged execution;
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
		const cpus = 2
		k := NewKernel(Config{NumCPUs: cpus, Timing: &noNoise, Seed: 1, Policy: pol, Quantum: quantum})
		var tasks []*Task
		for i, s := range seeds {
			exec := time.Duration(int(s%40)+1) * 10 * time.Microsecond // 10µs..400µs
			period := time.Duration(int(s%5)+1) * time.Millisecond
			task, err := k.CreateTask(TaskSpec{
				Name:     fmt.Sprintf("t%d", i),
				Type:     Periodic,
				CPU:      int(s/8) % cpus,
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
		// The window ends off every period boundary, so jobs are caught
		// mid-execution and preempted with partial charges.
		const window = 100*time.Millisecond + 173*time.Microsecond
		if err := k.Run(window); err != nil {
			return false
		}
		var consumed [cpus]time.Duration
		for _, task := range tasks {
			st := task.Stats()
			spec := task.Spec()
			// Jitter is disabled, so every job executes exactly ExecTime.
			want := time.Duration(st.Jobs)*spec.ExecTime + task.InFlightCPU()
			if got := task.ConsumedCPU(); got != want {
				t.Logf("%s consumed %v, want %d jobs × %v + in-flight %v = %v",
					task.Name(), got, st.Jobs, spec.ExecTime, task.InFlightCPU(), want)
				return false
			}
			consumed[spec.CPU] += task.ConsumedCPU()
			if st.Jobs > 0 && st.Response.Min < int64(spec.ExecTime) {
				t.Logf("%s response %d < exec %v", task.Name(), st.Response.Min, spec.ExecTime)
				return false
			}
		}
		for cpu := 0; cpu < cpus; cpu++ {
			busy, err := k.BusyTime(cpu)
			if err != nil {
				return false
			}
			if busy > window {
				t.Logf("cpu%d busy %v > window %v", cpu, busy, window)
				return false
			}
			if busy != consumed[cpu] {
				t.Logf("cpu%d busy %v != Σ consumed %v", cpu, busy, consumed[cpu])
				return false
			}
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
