package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/net"
	"repro/internal/policy"
)

func mustParse(t *testing.T, c comp) *descriptor.Component {
	t.Helper()
	d, err := descriptor.Parse(c.xml())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCheckLoadRejectsOverBound(t *testing.T) {
	if err := checkLoad("node", policy.View{NumCPUs: 2, CPULoad: []float64{0.5, 1.0}}); err != nil {
		t.Fatalf("load at the bound must pass: %v", err)
	}
	if err := checkLoad("node", policy.View{NumCPUs: 2, CPULoad: []float64{0.5, 1.2}}); err == nil {
		t.Fatal("load 1.2 above the bound passed")
	}
}

func TestCheckWiringRejectsUnboundInport(t *testing.T) {
	cs := groups(1, 1, 1, 1000, 0.01)
	descs := map[string]*descriptor.Component{}
	for _, c := range cs {
		descs[c.Name] = mustParse(t, c)
	}
	relay := core.Info{Name: "r000", State: core.Active, Bindings: map[string]string{"t000": "p000"}}
	if err := checkWiring("node", []core.Info{relay}, descs); err != nil {
		t.Fatalf("bound relay must pass: %v", err)
	}
	unbound := core.Info{Name: "r000", State: core.Active, Bindings: map[string]string{}}
	if err := checkWiring("node", []core.Info{unbound}, descs); err == nil {
		t.Fatal("ACTIVE component with an unbound inport passed")
	}
	unbound.State = core.Unsatisfied
	if err := checkWiring("node", []core.Info{unbound}, descs); err != nil {
		t.Fatalf("an unsatisfied component may lack bindings: %v", err)
	}
}

func TestCheckTransitionsRejectsIllegalEdge(t *testing.T) {
	ok := []core.Event{
		{Component: "a", From: 0, To: core.Unsatisfied, Reason: "deployed"},
		{Component: "a", From: core.Unsatisfied, To: core.Satisfied},
		{Component: "a", From: core.Satisfied, To: core.Active},
		{Component: "a", From: core.Active, To: core.Active, Reason: "downgraded"},
		{Component: "a", From: core.Active, To: core.Destroyed},
	}
	if err := checkTransitions("node", ok); err != nil {
		t.Fatalf("legal log rejected: %v", err)
	}
	bad := append(ok[:3:3], core.Event{Component: "a", From: core.Active, To: core.Satisfied})
	if err := checkTransitions("node", bad); err == nil {
		t.Fatal("ACTIVE -> SATISFIED passed")
	}
	if err := checkTransitions("node", []core.Event{{Component: "a", From: 0, To: core.Active}}); err == nil {
		t.Fatal("NEW -> ACTIVE passed")
	}
}

func TestCheckLedgerRejectsImbalance(t *testing.T) {
	if err := checkLedger(net.Stats{Sent: 10, Duplicated: 1, Delivered: 8, Dropped: 2, Inflight: 1}); err != nil {
		t.Fatalf("balanced ledger rejected: %v", err)
	}
	if err := checkLedger(net.Stats{Sent: 10, Delivered: 8, Dropped: 1}); err == nil {
		t.Fatal("a lost message passed")
	}
}

func TestMisplacedFindsDuplicates(t *testing.T) {
	comps := []comp{{Name: "pr00"}, {Name: "co00"}, {Name: "pr01"}}
	catalog := map[string]int{"pr00": 0, "co00": 1}
	infos := [][]core.Info{
		{{Name: "pr00", State: core.Active}},
		{{Name: "co00", State: core.Active}, {Name: "pr00", State: core.Unsatisfied}},
		{{Name: "co00", State: core.Active}, {Name: "pr01", State: core.Active}},
	}
	bad := misplacedComps(catalog, comps, infos)
	if len(bad) != 2 {
		t.Fatalf("want co00 (admitted twice) and pr01 (not catalogued), got %q", bad)
	}
}

// A clean steady run at a small size passes every invariant.
func TestSmallSteadyRunPasses(t *testing.T) {
	in, err := steadyInput(3, sizing{Groups: 24, Batches: 150})
	if err != nil {
		t.Fatal(err)
	}
	n, err := setupNode(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	cl := newClient(nil)
	for _, b := range in.Script.Batches {
		for _, o := range b.Ops {
			n.do(cl, o)
		}
		if err := n.run(nil, b.Slice); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.tail(in.Script.Tail); err != nil {
		t.Fatal(err)
	}
	if err := checkNode(n); err != nil {
		t.Fatal(err)
	}
	if s := n.sim(); s.jobs == 0 || len(s.heals) == 0 {
		t.Fatalf("no jobs (%d) or heals (%d) measured", s.jobs, len(s.heals))
	}
}
