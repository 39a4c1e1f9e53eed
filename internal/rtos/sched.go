package rtos

import "repro/internal/sim"

// readyQueue is a binary min-heap of runnable jobs. Under fixed priority
// it orders by (priority, seq): lower priority value first, FIFO within a
// level, and re-enqueueing a job assigns a fresh seq, which yields
// round-robin rotation among equal priorities when the quantum expires.
// Under EDF it orders by (absolute deadline, seq). Each slot carries the
// job's key inline (job.key: the priority or the absolute deadline), so
// comparisons never chase the job's task pointer. Jobs keep their slot
// position in heapIdx, so remove (Suspend) stays O(log n).
type readyQueue struct {
	items []readySlot
	edf   bool
}

// readySlot is one ready-queue entry.
type readySlot struct {
	key int64
	seq uint64
	j   *job
}

func (a readySlot) less(b readySlot) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// keyOf is j's ordering key under the queue's policy.
func (q *readyQueue) keyOf(j *job) int64 {
	if q.edf {
		return int64(j.absDeadline)
	}
	return int64(j.task.spec.Priority)
}

func (q *readyQueue) push(j *job) {
	j.queued = true
	j.key = q.keyOf(j)
	q.items = append(q.items, readySlot{})
	q.up(len(q.items)-1, readySlot{key: j.key, seq: j.seq, j: j})
}

func (q *readyQueue) pop() *job {
	if len(q.items) == 0 {
		return nil
	}
	j := q.items[0].j
	q.removeAt(0)
	return j
}

// remove withdraws a specific job (used by Suspend) through its stored
// heap index — O(log n) instead of a linear scan of the ready queue.
func (q *readyQueue) remove(j *job) {
	if !j.queued || j.heapIdx < 0 || j.heapIdx >= len(q.items) || q.items[j.heapIdx].j != j {
		return
	}
	q.removeAt(j.heapIdx)
}

// removeAt deletes the slot at i, refilling the hole with the last slot.
func (q *readyQueue) removeAt(i int) {
	h := q.items
	j := h[i].j
	n := len(h) - 1
	last := h[n]
	h[n] = readySlot{}
	q.items = h[:n]
	if i < n {
		if i > 0 && last.less(h[(i-1)/2]) {
			q.up(i, last)
		} else {
			q.down(i, last)
		}
	}
	j.queued = false
	j.heapIdx = -1
}

// up places s at or above position i.
func (q *readyQueue) up(i int, s readySlot) {
	h := q.items
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].j.heapIdx = i
		i = p
	}
	h[i] = s
	s.j.heapIdx = i
}

// down places s at or below position i.
func (q *readyQueue) down(i int, s readySlot) {
	h := q.items
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(s) {
			break
		}
		h[i] = h[c]
		h[i].j.heapIdx = i
		i = c
	}
	h[i] = s
	s.j.heapIdx = i
}

// cpu is one simulated processor with its own run queue. clk and sh are
// the clock and shard the CPU's event processing runs on (the kernel's
// own clock and single shard in the sequential engine).
type cpu struct {
	id         int
	clk        *sim.Clock
	sh         *kshard
	ready      readyQueue
	running    *job
	sliceStart sim.Time
	complEv    *sim.Event
	quantEv    *sim.Event
	nextSeq    uint64

	// completeFn and quantumFn are the slice-event handlers, bound once at
	// kernel construction so arming a slice allocates no closure.
	completeFn sim.Handler
	quantumFn  sim.Handler

	busy sim.Duration // accumulated execution time, for utilization reports
}

// enqueue admits a job and preempts the running job if the newcomer is
// strictly more urgent.
func (c *cpu) enqueue(k *Kernel, j *job, now sim.Time) {
	j.seq = c.nextSeq
	c.nextSeq++
	c.ready.push(j)
	if c.running == nil {
		c.dispatch(k, now)
		return
	}
	if j.key < c.running.key {
		c.preemptRunning(k, now)
		c.dispatch(k, now)
		return
	}
	// An equal-priority arrival starts round-robin rotation if the
	// current slice has no quantum armed yet (never under EDF).
	if k.quantum > 0 && !c.ready.edf && c.quantEv == nil && j.key == c.running.key {
		c.armQuantum(k, now)
	}
}

// dispatch starts the most urgent ready job if the CPU is idle.
func (c *cpu) dispatch(k *Kernel, now sim.Time) {
	if c.running != nil {
		return
	}
	j := c.ready.pop()
	if j == nil {
		return
	}
	c.running = j
	c.sliceStart = now
	k.traceOn(c.sh, now, TraceDispatch, j.task.spec.Name, c.id)
	if !j.dispatched {
		j.dispatched = true
		j.dispatchTime = now
		t := j.task
		t.latency.Add(int64(now.Sub(j.nominal)))
		if t.spec.Body != nil {
			t.jobCtx = JobContext{
				Kernel:  k,
				Task:    t,
				Now:     now,
				Nominal: j.nominal,
				Index:   t.jobsDone + t.skips, // monotone job index
			}
			t.spec.Body(&t.jobCtx)
		}
	}
	c.scheduleSlice(k, now)
}

// scheduleSlice arms the completion event and, if round-robin applies,
// the quantum event.
func (c *cpu) scheduleSlice(k *Kernel, now sim.Time) {
	j := c.running
	complAt := now.Add(j.remaining)
	ev, err := c.clk.Schedule(complAt, j.task.completeLabel, c.completeFn)
	if err != nil {
		panic(err) // virtual-time scheduling cannot fail here
	}
	c.complEv = ev
	if k.quantum > 0 && !c.ready.edf {
		if len(c.ready.items) > 0 && c.ready.items[0].key == j.key {
			c.armQuantum(k, now)
		}
	}
}

// armQuantum schedules the end of the running job's time slice, measured
// from the start of the current slice. If the job completes first, the
// completion event cancels the quantum.
func (c *cpu) armQuantum(k *Kernel, now sim.Time) {
	j := c.running
	if j == nil || c.quantEv != nil {
		return
	}
	at := c.sliceStart.Add(k.quantum)
	if at >= c.sliceStart.Add(j.remaining) {
		return // completion arrives first; no rotation needed
	}
	if at < now {
		at = now
	}
	qev, err := c.clk.Schedule(at, j.task.quantumLabel, c.quantumFn)
	if err != nil {
		panic(err)
	}
	c.quantEv = qev
}

// preemptRunning stops the current job, accounting consumed time, and
// returns it to the ready queue.
func (c *cpu) preemptRunning(k *Kernel, now sim.Time) {
	j := c.running
	if j == nil {
		return
	}
	k.traceOn(c.sh, now, TracePreempt, j.task.spec.Name, c.id)
	elapsed := now.Sub(c.sliceStart)
	j.remaining -= elapsed
	if j.remaining < 0 {
		j.remaining = 0
	}
	c.busy += elapsed
	j.task.consumed += elapsed
	c.cancelSliceEvents()
	c.running = nil
	j.seq = c.nextSeq
	c.nextSeq++
	c.ready.push(j)
}

// rotate ends the running job's quantum, moving it behind its
// equal-priority peers.
func (c *cpu) rotate(k *Kernel, now sim.Time) {
	j := c.running
	if j == nil {
		return
	}
	elapsed := now.Sub(c.sliceStart)
	j.remaining -= elapsed
	if j.remaining < 0 {
		j.remaining = 0
	}
	c.busy += elapsed
	j.task.consumed += elapsed
	c.cancelSliceEvents()
	c.running = nil
	if j.remaining > 0 {
		k.traceOn(c.sh, now, TraceRotate, j.task.spec.Name, c.id)
		j.seq = c.nextSeq
		c.nextSeq++
		c.ready.push(j)
	} else {
		c.finishJob(k, j, now)
		c.sh.recycleJob(j)
	}
	c.dispatch(k, now)
}

// complete finishes the running job.
func (c *cpu) complete(k *Kernel, now sim.Time) {
	j := c.running
	if j == nil {
		return
	}
	c.busy += now.Sub(c.sliceStart)
	j.task.consumed += now.Sub(c.sliceStart)
	c.cancelSliceEvents()
	c.running = nil
	j.remaining = 0
	c.finishJob(k, j, now)
	c.sh.recycleJob(j)
	c.dispatch(k, now)
}

func (c *cpu) finishJob(k *Kernel, j *job, now sim.Time) {
	t := j.task
	if t.state == TaskDeleted {
		return
	}
	k.traceOn(c.sh, now, TraceComplete, t.spec.Name, c.id)
	t.response.Add(int64(now.Sub(j.nominal)))
	t.jobsDone++
	if d := t.deadline(); d > 0 && now > j.nominal.Add(d) {
		t.misses++
	}
	if t.pending == j {
		t.pending = nil
	}
}

func (c *cpu) cancelSliceEvents() {
	if c.complEv != nil {
		c.complEv.Cancel()
		c.complEv = nil
	}
	if c.quantEv != nil {
		c.quantEv.Cancel()
		c.quantEv = nil
	}
}
