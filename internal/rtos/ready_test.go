package rtos

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
)

// TestReadyQueueMatchesOracle drives the ready queue with a seeded random
// mix of push, pop and remove (Suspend's path) under both fixed priority
// and EDF, and checks every pop against a sorted-slice oracle ordered by
// (priority or absolute deadline, seq). It also checks that every queued
// job's heapIdx points at its own slot.
func TestReadyQueueMatchesOracle(t *testing.T) {
	for _, edf := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			q := readyQueue{edf: edf}
			var oracle []*job
			var seq uint64
			key := func(j *job) int64 {
				if edf {
					return int64(j.absDeadline)
				}
				return int64(j.task.spec.Priority)
			}
			sortOracle := func() {
				sort.Slice(oracle, func(a, b int) bool {
					ka, kb := key(oracle[a]), key(oracle[b])
					if ka != kb {
						return ka < kb
					}
					return oracle[a].seq < oracle[b].seq
				})
			}
			pops := 0
			for op := 0; op < 3000; op++ {
				switch k := r.Intn(10); {
				case k < 5:
					// Few distinct keys, so ties on the key are common and
					// seq decides.
					j := &job{
						task:        &Task{spec: TaskSpec{Priority: r.Intn(4)}},
						absDeadline: sim.Time(r.Intn(6) * 1000),
						seq:         seq,
					}
					seq++
					q.push(j)
					oracle = append(oracle, j)
				case k < 8:
					got := q.pop()
					if len(oracle) == 0 {
						if got != nil {
							t.Fatalf("edf=%v seed %d op %d: pop from empty queue returned a job", edf, seed, op)
						}
						continue
					}
					sortOracle()
					want := oracle[0]
					oracle = oracle[1:]
					if got != want {
						t.Fatalf("edf=%v seed %d op %d: popped (key %d, seq %d), oracle (key %d, seq %d)",
							edf, seed, op, key(got), got.seq, key(want), want.seq)
					}
					if got.queued {
						t.Fatalf("edf=%v seed %d op %d: popped job still marked queued", edf, seed, op)
					}
					pops++
				default:
					if len(oracle) == 0 {
						continue
					}
					i := r.Intn(len(oracle))
					j := oracle[i]
					oracle = append(oracle[:i], oracle[i+1:]...)
					q.remove(j)
					if j.queued {
						t.Fatalf("edf=%v seed %d op %d: removed job still marked queued", edf, seed, op)
					}
					q.remove(j) // a second remove is a no-op
				}
				if len(q.items) != len(oracle) {
					t.Fatalf("edf=%v seed %d op %d: queue holds %d jobs, oracle %d", edf, seed, op, len(q.items), len(oracle))
				}
				for i, s := range q.items {
					if s.j.heapIdx != i || !s.j.queued || s.key != key(s.j) || s.seq != s.j.seq {
						t.Fatalf("edf=%v seed %d op %d: slot %d out of sync with its job", edf, seed, op, i)
					}
				}
			}
			if pops < 500 {
				t.Fatalf("edf=%v seed %d: only %d pops; the mix exercises too little", edf, seed, pops)
			}
		}
	}
}
