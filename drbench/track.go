package main

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// producerBody and consumerBody are the functional routines of the
// generated components.
func producerBody(d *descriptor.Component) rtos.Body {
	outs := make([]string, len(d.OutPorts))
	for i, p := range d.OutPorts {
		outs[i] = p.Name
	}
	return func(j *rtos.JobContext) {
		for _, name := range outs {
			if shm, err := j.Kernel.IPC().SHM(name); err == nil {
				_ = shm.Set(int(j.Index%8), int64(j.Index))
			}
		}
	}
}

func consumerBody(*descriptor.Component) rtos.Body { return func(*rtos.JobContext) {} }

// tracker follows the lifecycle event stream of every node. It keeps a
// pointer to every task a component ever ran on, so the job, miss and
// latency counters of deactivated and removed tasks still count, and it
// keeps the ACTIVE count that active_ratio samples after every slice.
type tracker struct {
	kernels []*rtos.Kernel
	seen    map[*rtos.Task]bool
	tasks   []*rtos.Task
	// active counts, per component name, the nodes it is ACTIVE on;
	// activeNames is how many names are ACTIVE somewhere.
	active      map[string]int
	activeNames int
	state       []map[string]core.State
}

func newTracker() *tracker {
	return &tracker{seen: map[*rtos.Task]bool{}, active: map[string]int{}}
}

// attach subscribes to the next node's DRCR; nodes are numbered in attach order.
func (t *tracker) attach(d *core.DRCR) {
	node := len(t.kernels)
	t.kernels = append(t.kernels, d.Kernel())
	t.state = append(t.state, map[string]core.State{})
	d.AddListener(func(ev core.Event) { t.note(node, ev) })
}

func (t *tracker) note(node int, ev core.Event) {
	st := t.state[node]
	was := st[ev.Component]
	if ev.To == core.Destroyed {
		delete(st, ev.Component)
	} else {
		st[ev.Component] = ev.To
	}
	if was == core.Active && ev.To != core.Active {
		t.active[ev.Component]--
		if t.active[ev.Component] == 0 {
			t.activeNames--
		}
	}
	if was != core.Active && ev.To == core.Active {
		if t.active[ev.Component] == 0 {
			t.activeNames++
		}
		t.active[ev.Component]++
	}
	if task, ok := t.kernels[node].Task(ev.Component); ok {
		t.register(task)
	}
}

func (t *tracker) register(task *rtos.Task) {
	if !t.seen[task] {
		t.seen[task] = true
		t.tasks = append(t.tasks, task)
	}
}

// sweep registers every live task; the event stream covers all of them,
// this only guards against a task that appeared without an event.
func (t *tracker) sweep() {
	for _, k := range t.kernels {
		for _, task := range k.Tasks() {
			t.register(task)
		}
	}
}

// jobs sums job and miss counters over every task ever seen.
func (t *tracker) jobs() (jobs, misses uint64) {
	for _, task := range t.tasks {
		j, m, _ := task.Counters()
		jobs += j
		misses += m
	}
	return jobs, misses
}

// jitterUS is the job-weighted mean absolute deviation of release
// latency (the paper's Table 1 AVEDEV column), in microseconds.
func (t *tracker) jitterUS() float64 {
	var num, den float64
	for _, task := range t.tasks {
		row := task.Stats().Latency
		num += float64(row.N) * row.AveDev
		den += float64(row.N)
	}
	return ratio(num, den) / 1e3
}

// heal is a client write that should bring a component back into
// service: resume, promote, restore, enable or redeploy.
type heal struct {
	name string
	at   sim.Time
	node int
	old  *rtos.Task // the task live before the heal (nil if none)
	idx  int        // latency samples of old taken before the heal
	// fresh heals (promote, restore, enable, deploy) converge on a new
	// task; a resume converges on the task it woke.
	fresh bool
}

// heals measures the simulated time from each heal until the healed
// component's first job after it is dispatched, read from the task's
// phase, period and recorded release latency.
type heals struct {
	t       *tracker
	pending []*heal
	done    []float64 // simulated ms per converged heal
	expired int
}

// begin notes the component's task before the heal call is issued;
// commit files the heal once the call has succeeded.
func (h *heals) begin(node int, name string, fresh bool) *heal {
	hl := &heal{name: name, at: h.t.kernels[node].Now(), node: node, fresh: fresh}
	if task, ok := h.t.kernels[node].Task(name); ok {
		hl.old = task
		if !fresh {
			hl.idx = len(task.LatencySamples())
		}
	}
	return hl
}

func (h *heals) commit(hl *heal) { h.pending = append(h.pending, hl) }

// poll resolves the heals whose component has dispatched a job since.
// A heal still unconverged after healWait of simulated time (its
// component waits for admission, or a later write took it down again) is
// dropped and counted in expired.
const healWait = 200 * time.Millisecond

func (h *heals) poll() {
	keep := h.pending[:0]
	for _, hl := range h.pending {
		if ms, ok := h.converged(hl); ok {
			h.done = append(h.done, ms)
			continue
		}
		if h.t.kernels[hl.node].Now().Sub(hl.at) > sim.Duration(healWait) {
			h.expired++
			continue
		}
		keep = append(keep, hl)
	}
	h.pending = keep
}

func (h *heals) converged(hl *heal) (float64, bool) {
	task, ok := h.t.kernels[hl.node].Task(hl.name)
	if !ok {
		return 0, false
	}
	spec := task.Spec()
	var first sim.Time
	idx := 0
	if !hl.fresh {
		if task != hl.old {
			return 0, false
		}
		// Resumed in place: releases realign to the next period boundary.
		if task.State() != rtos.TaskActive {
			return 0, false
		}
		p := sim.Time(spec.Period)
		ph := sim.Time(spec.Phase)
		k := sim.Time(0)
		if hl.at > ph {
			k = (hl.at-ph)/p + 1
		}
		first = ph + k*p
		idx = hl.idx
	} else {
		if task == hl.old {
			return 0, false
		}
		// A fresh task starts releasing at its phase.
		first = sim.Time(spec.Phase)
	}
	lat := task.LatencySamples()
	if len(lat) <= idx {
		return 0, false
	}
	at := first + sim.Time(lat[idx])
	return float64(at-hl.at) / 1e6, true
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
