// Command drbench is the repository benchmark. It runs one seeded,
// closed-loop workload against the DRCom stack through its public calls,
// checks the output against the paper's guarantees, and prints one JSON
// line of metrics, each with its unit.
//
//	bash drbench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs the timed phase untraced and then traced, and
// reports the per-layer split; the spans go to .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// A run builds its stack from nothing at least minSetups times and until
// setupBudget has passed (at most maxSetups times). It reports the median
// set-up time of all but the first build, which also pays the process's
// one-time start-up costs, and measures on the last stack built.
const (
	minSetups   = 8
	maxSetups   = 30
	setupBudget = 1500 * time.Millisecond
)

// warmup is the simulated time every stack runs before timing starts.
const warmup = 20 * time.Millisecond

// target is one stack under test, single-node or federated.
type target interface {
	do(c *client, o op)
	run(tr *tracer, d time.Duration) error
	tail(d time.Duration) error
	check() error
	sim() simStats
	counts() layerCounts
	close()
}

// workload builds inputs from the seed and stacks from the inputs.
type workload struct {
	setup func(tr *tracer) (target, error)
	// script is the timed-phase op script.
	script script
}

func newWorkload(name string, seed int64, seconds int) (*workload, error) {
	batches := func(perSec int) int { return perSec * seconds }
	switch name {
	case "steady", "churn":
		var in *nodeInput
		var err error
		if name == "steady" {
			in, err = steadyInput(seed, sizing{Groups: 400, Batches: batches(steadyBatchesPerSec)})
		} else {
			in, err = churnInput(seed, sizing{Groups: 390, Batches: batches(churnBatchesPerSec)})
		}
		if err != nil {
			return nil, err
		}
		return &workload{
			script: in.Script,
			setup:  func(tr *tracer) (target, error) { return setupNode(in, tr) },
		}, nil
	case "federation":
		in, err := fedInput(seed, batches(fedBatchesPerSec))
		if err != nil {
			return nil, err
		}
		return &workload{
			script: in.Script,
			setup:  func(tr *tracer) (target, error) { return setupFed(in, tr) },
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (steady, churn, federation)", name)
}

// timed is what one timed phase measured.
type timed struct {
	wall          time.Duration
	sim           time.Duration
	before, after layerCounts
	cl            *client
	mem           runtime.MemStats // after a forced GC at the end
	memBefore     runtime.MemStats
	from, to      int64 // tracer clock bounds of the phase
	// misplaced counts components not placed exactly once after the
	// quiet tail (federation only).
	misplaced int
}

// measure runs warm-up, then the timed phase, then the quiet tail.
func (w *workload) measure(t target, tr *tracer) (timed, error) {
	var m timed
	if err := t.run(nil, warmup); err != nil {
		return m, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	m.before = t.counts()
	runtime.ReadMemStats(&m.memBefore)
	m.cl = newClient(tr)
	if tr != nil {
		m.from = int64(time.Since(tr.epoch))
	}
	start := time.Now()
	for _, b := range w.script.Batches {
		for _, o := range b.Ops {
			t.do(m.cl, o)
		}
		if err := t.run(tr, b.Slice); err != nil {
			return m, fmt.Errorf("slice: %w", err)
		}
		m.sim += b.Slice
	}
	m.wall = time.Since(start)
	if tr != nil {
		m.to = int64(time.Since(tr.epoch))
	}
	runtime.GC()
	runtime.ReadMemStats(&m.mem)
	m.after = t.counts()
	if err := t.tail(w.script.Tail); err != nil {
		return m, fmt.Errorf("quiet tail: %w", err)
	}
	if f, ok := t.(*fed); ok {
		m.misplaced = len(f.misplaced())
	}
	return m, nil
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "steady", "workload: steady, churn or federation")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "approximate host seconds the timed phase measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer split from a traced run")
	spanDir := flag.String("spans", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "drbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	out, err := runBench(*name, *seed, *seconds, *trace == 1, *spanDir)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(out); err == nil {
			fmt.Println(string(line))
			return
		}
	}
	fmt.Fprintf(os.Stderr, "drbench: workload %s seed %d: %v\n", *name, *seed, err)
	os.Exit(1)
}

// runBench runs one workload. A failed output check is an error naming
// the violated invariant; no result is printed then.
func runBench(name string, seed int64, seconds int, traced bool, spanDir string) (*output, error) {
	w, err := newWorkload(name, seed, seconds)
	if err != nil {
		return nil, err
	}
	if !traced {
		return runUntraced(w)
	}
	return runTraced(w, name, seed, spanDir)
}

func runUntraced(w *workload) (*output, error) {
	var setups []float64
	var t target
	for began := time.Now(); len(setups) < maxSetups &&
		(len(setups) < minSetups || time.Since(began) < setupBudget); {
		if t != nil {
			t.close()
			t = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		if t, err = w.setup(nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer t.close()
	m, err := w.measure(t, nil)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "setup runs (s): %v\nerrors by verb:\n%s", setups, m.cl.errSummary())
	// The output check goes first: a violated invariant is reported even
	// when a run is too short for its percentiles.
	if err := t.check(); err != nil {
		return nil, fmt.Errorf("output check failed: %w", err)
	}
	out := &output{Attempted: m.cl.attempted, Failed: m.cl.failed, Correct: true}
	if out.Metrics, err = endToEnd(median(setups[1:]), m, t.sim()); err != nil {
		return nil, err
	}
	return out, nil
}

func runTraced(w *workload, name string, seed int64, spanDir string) (*output, error) {
	// The untraced twin: the same inputs on a fresh stack, timed without
	// spans, gives the base of bench.trace_overhead_ratio.
	t0, err := w.setup(nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	plain, err := w.measure(t0, nil)
	t0.close()
	if err != nil {
		return nil, err
	}
	runtime.GC()

	tr := newTracer()
	var t target
	tr.do("bench.setup", func() { t, err = w.setup(tr) })
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer t.close()
	m, err := w.measure(t, tr)
	if err != nil {
		return nil, err
	}
	if err := t.check(); err != nil {
		return nil, fmt.Errorf("output check failed: %w", err)
	}
	if err := tr.dump(spanDir, name, seed); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return &output{Attempted: m.cl.attempted, Failed: m.cl.failed, Correct: true, Metrics: perLayer(tr, m, plain)}, nil
}
