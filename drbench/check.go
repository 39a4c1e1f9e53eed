package main

// Output check on the paper's guarantees. Every invariant is computed
// from simulated state only — never from wall time — so a run passes or
// fails the same way on any host. There is deliberately no golden
// digest of program internals: a legitimate model change must not read
// as an incorrect output.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/net"
	"repro/internal/policy"
)

// admissionBound is the utilisation bound of the DRCR's default
// internal resolving service (policy.Utilization with bound 1.0).
const admissionBound = 1.0

// checkLoad: every CPU's admitted load stays within the admission bound.
func checkLoad(where string, v policy.View) error {
	for cpu, load := range v.CPULoad {
		if load > admissionBound+1e-9 {
			return fmt.Errorf("load bound: %s cpu %d admitted load %.6f exceeds %.2f", where, cpu, load, admissionBound)
		}
	}
	return nil
}

// checkWiring: no ACTIVE component has an unbound inport that its
// current service mode keeps.
func checkWiring(where string, infos []core.Info, descs map[string]*descriptor.Component) error {
	for _, info := range infos {
		if info.State != core.Active {
			continue
		}
		d := descs[info.Name]
		if d == nil {
			return fmt.Errorf("wiring: %s ACTIVE component %s was never generated", where, info.Name)
		}
		for _, in := range d.InPorts {
			if d.RequiresInport(info.Mode, in.Name) && info.Bindings[in.Name] == "" {
				return fmt.Errorf("wiring: %s ACTIVE component %s (mode %s) has unbound inport %s",
					where, info.Name, info.ModeName, in.Name)
			}
		}
	}
	return nil
}

// checkTransitions: every lifecycle transition is a Figure 1 edge. The
// creation event NEW→UNSATISFIED is the entry edge and lies outside the
// relation; ACTIVE→ACTIVE events are service-mode swaps, not state
// transitions.
func checkTransitions(where string, evs []core.Event) error {
	for _, ev := range evs {
		if ev.From == 0 && ev.To == core.Unsatisfied {
			continue
		}
		if ev.From == ev.To && ev.From == core.Active {
			continue
		}
		if !core.CanTransition(ev.From, ev.To) {
			return fmt.Errorf("transition: %s illegal %v -> %v for %s at %v (%s)",
				where, ev.From, ev.To, ev.Component, ev.At, ev.Reason)
		}
	}
	return nil
}

// checkLedger: the network conserves messages.
func checkLedger(s net.Stats) error {
	if s.Sent+s.Duplicated != s.Delivered+s.Dropped+uint64(s.Inflight) {
		return fmt.Errorf("net ledger: sent %d + duplicated %d != delivered %d + dropped %d + inflight %d",
			s.Sent, s.Duplicated, s.Delivered, s.Dropped, s.Inflight)
	}
	return nil
}

// checkNode runs the single-node invariants on a live stack.
func checkNode(n *node) error {
	d := n.sys.DRCR()
	if err := checkLoad("node", d.GlobalView()); err != nil {
		return err
	}
	if err := checkWiring("node", d.Components(), n.in.descs); err != nil {
		return err
	}
	return checkTransitions("node", d.Events())
}
