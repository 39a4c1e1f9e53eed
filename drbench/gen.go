package main

// Seeded input generation. Everything the program receives — component
// descriptors, bundle layout, partition schedule and the client's op
// script — is made here from the workload parameters and the seed, and
// nothing here reads program state: the same seed gives the same inputs.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// op is one client call in the script.
type op struct {
	Verb   string // e.g. "suspend", "resume", "components", "bundle_stop"
	Target string // component or bundle name ("" for whole-table reads)
	Node   int    // federation: the node a deploy-on targets
}

// batch is what the client does between two slices: its ops, in order,
// then a Run of Slice simulated time.
type batch struct {
	Ops   []op
	Slice time.Duration
}

// script is the full timed phase plus the quiet tail that follows it.
type script struct {
	Batches []batch
	// Tail is the quiet simulated time run after the last batch, with
	// every disruption already undone.
	Tail time.Duration
}

// pair is a disruption and the write that undoes it.
type pair struct {
	Do, Undo string
	Weight   float64
	// Bundle marks pairs that target a bundle rather than a component.
	Bundle bool
}

// readMix weights one read verb.
type readMix struct {
	Verb   string
	Weight float64
	// Whole marks reads of the whole table (no target).
	Whole bool
}

// scriptSpec parameterises the op generator.
type scriptSpec struct {
	Batches int
	// Slice is the simulated time between batches; each slice length is
	// drawn uniformly from [SliceMin, SliceMax].
	SliceMin, SliceMax time.Duration
	// Disrupt is the mean number of new disruptions per batch (the
	// fractional part is drawn); every disruption's undo follows after a
	// delay drawn from [DelayMin, DelayMax] batches.
	Disrupt            float64
	DelayMin, DelayMax int
	Pairs              []pair
	// Always lists whole-table reads issued first in every batch.
	Always []string
	// Reads is the number of further reads per batch and their mix.
	Reads   int
	ReadMix []readMix
	Targets []string // components a component pair may target
	Bundles []string // bundles a bundle pair may target
	// Stale is the share of disruptions aimed at a target that already
	// has one outstanding, as by a client whose view is out of date; such
	// calls can meet a component in an unexpected state, which is where
	// err_ratio comes from. Every disruption is still undone.
	Stale float64
	// ReadTargets are the components single-component reads name.
	ReadTargets []string
	// Home is set for federation: a component's undo of "remove" is a
	// deploy-on to Home[target].
	Home map[string]int
	Tail time.Duration
}

// genScript builds the op script. Every disruption is undone after a
// seeded delay, so the number outstanding stays bounded by about
// Disrupt × DelayMax and the population cannot decay over a long run.
func genScript(sp scriptSpec, rng *rand.Rand) script {
	pairW := make([]float64, len(sp.Pairs))
	for i, p := range sp.Pairs {
		pairW[i] = p.Weight
	}
	readW := make([]float64, len(sp.ReadMix))
	for i, r := range sp.ReadMix {
		readW[i] = r.Weight
	}
	// outstanding lists the targets of outstanding disruptions in the
	// order they were disrupted (a target may appear more than once).
	var outstanding []string
	bundles := map[string]bool{}
	for _, b := range sp.Bundles {
		bundles[b] = true
	}
	busy := func(t string) bool {
		for _, o := range outstanding {
			if o == t {
				return true
			}
		}
		return false
	}
	undo := map[int][]op{}
	var out script
	undoOp := func(p pair, target string) op {
		o := op{Verb: p.Undo, Target: target}
		if p.Undo == "deploy_on" {
			o.Node = sp.Home[target]
		}
		return o
	}
	for b := 0; b < sp.Batches; b++ {
		var ops []op
		for _, v := range sp.Always {
			ops = append(ops, op{Verb: v})
		}
		// Undos due now go first: the client heals before it disrupts.
		for _, o := range undo[b] {
			ops = append(ops, o)
			for i, t := range outstanding {
				if t == o.Target {
					outstanding = append(outstanding[:i], outstanding[i+1:]...)
					break
				}
			}
		}
		delete(undo, b)
		n := int(sp.Disrupt)
		if rng.Float64() < sp.Disrupt-float64(n) {
			n++
		}
		for i := 0; i < n; i++ {
			p := sp.Pairs[pickWeighted(rng, pairW)]
			var target string
			switch {
			case p.Bundle:
				target = sp.Bundles[rng.Intn(len(sp.Bundles))]
				if busy(target) {
					continue
				}
			case len(outstanding) > 0 && rng.Float64() < sp.Stale:
				target = outstanding[rng.Intn(len(outstanding))]
				if bundles[target] {
					continue
				}
			default:
				target = sp.Targets[rng.Intn(len(sp.Targets))]
				if busy(target) {
					continue
				}
			}
			outstanding = append(outstanding, target)
			ops = append(ops, op{Verb: p.Do, Target: target})
			at := b + sp.DelayMin + rng.Intn(sp.DelayMax-sp.DelayMin+1)
			undo[at] = append(undo[at], undoOp(p, target))
		}
		for i := 0; i < sp.Reads; i++ {
			r := sp.ReadMix[pickWeighted(rng, readW)]
			o := op{Verb: r.Verb}
			if !r.Whole {
				o.Target = sp.ReadTargets[rng.Intn(len(sp.ReadTargets))]
			}
			ops = append(ops, o)
		}
		slice := sp.SliceMin
		if sp.SliceMax > sp.SliceMin {
			slice += time.Duration(rng.Int63n(int64(sp.SliceMax-sp.SliceMin) + 1))
		}
		out.Batches = append(out.Batches, batch{Ops: ops, Slice: slice})
	}
	// Heal everything still outstanding before the quiet tail.
	var rest []int
	for b := range undo {
		rest = append(rest, b)
	}
	sort.Ints(rest)
	var last []op
	for _, b := range rest {
		last = append(last, undo[b]...)
	}
	if len(last) > 0 {
		out.Batches = append(out.Batches, batch{Ops: last, Slice: sp.SliceMin})
	}
	out.Tail = sp.Tail
	return out
}

// pickWeighted draws an index with probability proportional to its weight.
func pickWeighted(rng *rand.Rand, w []float64) int {
	var total float64
	for _, x := range w {
		total += x
	}
	x := rng.Float64() * total
	for i, wi := range w {
		if x < wi {
			return i
		}
		x -= wi
	}
	return len(w) - 1
}

// simTime is the simulated time the script covers, tail included.
func (s script) simTime() time.Duration {
	d := s.Tail
	for _, b := range s.Batches {
		d += b.Slice
	}
	return d
}

// comp describes one generated component.
type comp struct {
	Name   string
	CPU    int
	Hz     float64
	Usage  float64
	EcoHz  float64 // 0: no eco mode
	EcoUse float64
	Prio   int
	In     []string
	Out    []string
	// ExecUS pins the simulated execution time (0: the declared budget),
	// which is how a rogue component overruns its contract.
	ExecUS  int
	Bincode string
}

// xml renders the component's DRCom descriptor.
func (c comp) xml() string {
	var b strings.Builder
	fmt.Fprintf(&b, `<component name=%q type="periodic" cpuusage="%g">`+"\n", c.Name, c.Usage)
	fmt.Fprintf(&b, `  <implementation bincode=%q/>`+"\n", c.Bincode)
	fmt.Fprintf(&b, `  <periodictask frequence="%g" runoncup="%d" priority="%d"/>`+"\n", c.Hz, c.CPU, c.Prio)
	for _, p := range c.In {
		fmt.Fprintf(&b, `  <inport name=%q interface="RTAI.SHM" type="Integer" size="8"/>`+"\n", p)
	}
	for _, p := range c.Out {
		fmt.Fprintf(&b, `  <outport name=%q interface="RTAI.SHM" type="Integer" size="8"/>`+"\n", p)
	}
	if c.EcoHz > 0 {
		fmt.Fprintf(&b, `  <mode name="eco" frequence="%g" cpuusage="%g"/>`+"\n", c.EcoHz, c.EcoUse)
	}
	if c.ExecUS > 0 {
		fmt.Fprintf(&b, `  <property name="drcom.exectime.us" type="Integer" value="%d"/>`+"\n", c.ExecUS)
	}
	b.WriteString(`</component>`)
	return b.String()
}

// groups builds producer → relay → fan consumers chains; each group sits
// on one CPU, groups round-robin over cpus. Names stay within the six
// characters an RTAI task name allows.
func groups(n, cpus, fan int, hz, usage float64) []comp {
	var out []comp
	for g := 0; g < n; g++ {
		cpu := g % cpus
		t, u := fmt.Sprintf("t%03d", g), fmt.Sprintf("u%03d", g)
		mk := func(name string, prio int, in, outp []string, bin string) comp {
			return comp{Name: name, CPU: cpu, Hz: hz, Usage: usage, EcoHz: hz / 2, EcoUse: usage / 2,
				Prio: prio, In: in, Out: outp, Bincode: bin}
		}
		out = append(out, mk(fmt.Sprintf("p%03d", g), 1, nil, []string{t}, binProducer))
		out = append(out, mk(fmt.Sprintf("r%03d", g), 2, []string{t}, []string{u}, binProducer))
		for f := 0; f < fan; f++ {
			out = append(out, mk(fmt.Sprintf("c%03d%d", g, f), 3, []string{u}, nil, binConsumer))
		}
	}
	return out
}

// Body bincodes: producers and relays write their outports every job (a
// stale outport is a contract violation); consumers only compute.
const (
	binProducer = "drbench.Producer"
	binConsumer = "drbench.Consumer"
)

func names(cs []comp) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Name
	}
	return out
}
