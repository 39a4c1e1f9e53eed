package main

// The single-node workloads. Why each exists, and which layer it
// stresses, is in README.md; the constants below size them.

import (
	"fmt"
	"math/rand"
	"time"
)

// sizing scales a workload: Groups producer→relay→consumers chains
// (five components each) and Batches client batches in the timed phase.
type sizing struct {
	Groups  int
	Batches int
}

// Timed-phase batches per requested second, chosen so one run measures
// about --seconds of host time on a 2-core x86-64 host.
const (
	steadyBatchesPerSec = 70
	churnBatchesPerSec  = 130
	fedBatchesPerSec    = 700
)

// addRogues makes one consumer per CPU (outside skip) overrun its
// declared budget: its real execution time is pct % of its period
// (periodUS), however cheap its mode, so the contract guard downgrades,
// revokes and restores it for the whole run. The seed picks which
// consumers; the client leaves them alone, so their cycles are the
// guard's alone.
func addRogues(comps []comp, cpus int, rng *rand.Rand, periodUS, pct int, skip map[string]bool) map[string]bool {
	rogues := map[string]bool{}
	byCPU := map[int][]int{}
	for i, c := range comps {
		if c.Bincode == binConsumer && c.Usage < 0.01 && !skip[c.Name] {
			byCPU[c.CPU] = append(byCPU[c.CPU], i)
		}
	}
	for cpu := 0; cpu < cpus; cpu++ {
		if cands := byCPU[cpu]; len(cands) > 0 {
			i := cands[rng.Intn(len(cands))]
			comps[i].ExecUS = periodUS * pct / 100
			rogues[comps[i].Name] = true
		}
	}
	return rogues
}

// without lists the names of comps not in skip.
func without(comps []comp, skip map[string]bool) []string {
	var out []string
	for _, c := range comps {
		if !skip[c.Name] {
			out = append(out, c.Name)
		}
	}
	return out
}

// steadyInput: a set-top box at steady state. About 2,000 periodic
// components at 1 kHz on 8 CPUs near 0.75 utilisation, deployed as one
// bundle, one rogue per CPU. The client is a low-rate adaptation
// manager: suspend/resume and downgrade/promote pairs plus management
// reads between slices of a few milliseconds.
func steadyInput(seed int64, sz sizing) (*nodeInput, error) {
	rng := rand.New(rand.NewSource(seed))
	const cpus = 8
	comps := groups(sz.Groups, cpus, 3, 1000, 0.003)
	rogues := addRogues(comps, cpus, rng, 1000, 32, nil)
	in := &nodeInput{CPUs: cpus, Seed: seed, Bundles: []bundleSpec{{Name: "stb", Comps: comps}}}
	in.Script = genScript(scriptSpec{
		Batches:  sz.Batches,
		SliceMin: 2 * time.Millisecond, SliceMax: 6 * time.Millisecond,
		Disrupt: 1.5, DelayMin: 2, DelayMax: 30, Stale: 0.35,
		Pairs: []pair{
			{Do: "suspend", Undo: "resume", Weight: 2},
			{Do: "downgrade", Undo: "promote", Weight: 1},
		},
		Reads: 4,
		ReadMix: []readMix{
			{Verb: "component", Weight: 6},
			{Verb: "why", Weight: 2},
			{Verb: "global_view", Weight: 2},
			{Verb: "components", Weight: 0.5, Whole: true},
			{Verb: "snapshot", Weight: 0.2, Whole: true},
		},
		Targets: without(comps, rogues), ReadTargets: names(comps),
		Tail: 50 * time.Millisecond,
	}, rng)
	return in, in.index()
}

// churnInput: a reconfiguration storm. About 2,000 components at 100 Hz
// on 4 CPUs, with a heavy tail of over-budget components that keeps
// admission-denied waiters in play, deployed as 40 bundles of about 50.
// The client issues every write verb between short slices; one bundle
// in ten is restarted whole, which goes through the plan cache.
func churnInput(seed int64, sz sizing) (*nodeInput, error) {
	rng := rand.New(rand.NewSource(seed))
	const cpus = 4
	comps := groups(sz.Groups, cpus, 3, 100, 0.001)
	heavy := sz.Groups / 10
	if heavy < 2 {
		heavy = 2
	}
	for h := 0; h < heavy; h++ {
		comps = append(comps, comp{Name: fmt.Sprintf("z%03d", h), CPU: h % cpus, Hz: 1000, Usage: 0.45,
			Prio: 4, Bincode: binConsumer})
	}
	// Fifty components per bundle; the last one also carries the rest.
	in := &nodeInput{CPUs: cpus, Seed: seed}
	const per = 50
	for i := 0; i*per < len(comps); i++ {
		end := (i + 1) * per
		if len(comps)-end < per/2 {
			end = len(comps)
		}
		in.Bundles = append(in.Bundles, bundleSpec{Name: fmt.Sprintf("b%02d", i), Comps: comps[i*per : end]})
		if end == len(comps) {
			break
		}
	}
	// Restartable bundles are the targets of bundle stop/start. Their
	// components are neither rogues nor targets of component writes,
	// which would race the bundle for ownership of the component. The
	// heavy tail is not a client target either: which heavy component
	// holds each CPU's spare budget then depends on admission alone.
	var restart []string
	skip := map[string]bool{}
	for i, b := range in.Bundles {
		if i%10 == 5 || (len(in.Bundles) < 6 && i == 0) {
			restart = append(restart, b.Name)
			for _, c := range b.Comps {
				skip[c.Name] = true
			}
		}
	}
	for r := range addRogues(comps, cpus, rng, 10000, 32, skip) {
		skip[r] = true
	}
	for _, c := range comps {
		if c.Usage > 0.1 {
			skip[c.Name] = true
		}
	}
	in.Script = genScript(scriptSpec{
		Batches:  sz.Batches,
		SliceMin: 500 * time.Microsecond, SliceMax: 1500 * time.Microsecond,
		Disrupt: 12, DelayMin: 1, DelayMax: 8, Stale: 0.05,
		Pairs: []pair{
			{Do: "suspend", Undo: "resume", Weight: 4},
			{Do: "downgrade", Undo: "promote", Weight: 2},
			{Do: "remove", Undo: "deploy", Weight: 1.5},
			{Do: "disable", Undo: "enable", Weight: 1.5},
			{Do: "revoke", Undo: "restore", Weight: 1.5},
			{Do: "bundle_stop", Undo: "bundle_start", Weight: 0.02, Bundle: true},
		},
		Bundles: restart,
		Reads:   2,
		ReadMix: []readMix{
			{Verb: "component", Weight: 8},
			{Verb: "why", Weight: 2},
			{Verb: "global_view", Weight: 1},
		},
		Targets: without(comps, skip), ReadTargets: names(comps),
		Tail: 50 * time.Millisecond,
	}, rng)
	return in, in.index()
}
