package core

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// recomputeInfo is the test-only full recompute of one snapshot: every
// field derived afresh from the record and its descriptor, the way
// Components worked before it cached the sorted table and the
// descriptor-derived fields.
func recomputeInfo(c *Component) Info {
	info := Info{
		Name:       c.desc.Name,
		State:      c.state,
		Kind:       c.desc.Kind,
		CPU:        c.desc.CPU(),
		Priority:   c.desc.Priority(),
		CPUUsage:   c.desc.CPUUsage,
		Importance: c.desc.Importance,
		LastReason: c.lastReason,
		Revoked:    c.revoked,
		Mode:       c.mode,
		ModeName:   c.desc.ModeName(c.mode),
		Bindings:   map[string]string{},
	}
	if c.mode > 0 {
		info.CPUUsage = c.desc.ModeSpec(c.mode).CPUUsage
	}
	if n := c.desc.NumModes(); n > 1 {
		info.Modes = make([]ModeInfo, n)
		for i := 0; i < n; i++ {
			m := c.desc.ModeSpec(i)
			info.Modes[i] = ModeInfo{Name: m.Name, FrequencyHz: m.FrequencyHz, CPUUsage: m.CPUUsage, Drops: m.Drops}
		}
	}
	if c.bundle != nil {
		info.Bundle = c.bundle.SymbolicName()
	}
	if c.desc.Budget != nil {
		info.BudgetDist = c.desc.Budget.String()
		info.BudgetP = c.desc.BudgetP
	}
	for _, out := range c.desc.OutPorts {
		info.OutPorts = append(info.OutPorts, PortInfo{Name: out.Name, Interface: string(out.Interface)})
	}
	for k, v := range c.bindings {
		info.Bindings[k] = v
	}
	return info
}

// recomputeInfos snapshots every record from scratch, sorted by name.
func recomputeInfos(d *DRCR) []Info {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Info, 0, len(d.comps))
	for _, c := range d.comps {
		out = append(out, recomputeInfo(c))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// checkComponents asserts Components is strictly name-sorted and equal,
// field by field, to the full recompute.
func checkComponents(t *testing.T, d *DRCR, step string) {
	t.Helper()
	got := d.Components()
	for i := 1; i < len(got); i++ {
		if got[i-1].Name >= got[i].Name {
			t.Fatalf("%s: Components not name-sorted at %d: %q then %q", step, i, got[i-1].Name, got[i].Name)
		}
	}
	want := recomputeInfos(d)
	if len(got) != len(want) {
		t.Fatalf("%s: Components has %d rows, recompute %d", step, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: row %d differs:\n got  %+v\n want %+v", step, i, got[i], want[i])
		}
	}
}

// TestComponentsMatchesRecompute pins the cached Components table: across
// single deploys, a plan-applied bundle deploy, mode swaps (downgrade,
// promotion), revoke/restore, removal and a bundle stop/restart, every
// call returns what a full recompute of the table returns. It also checks
// that a snapshot's Bindings map is private to the call.
func TestComponentsMatchesRecompute(t *testing.T) {
	r := newPlanRig(t, 0, false)
	d := r.d
	checkComponents(t, d, "empty")

	steps := []struct {
		name string
		do   func() error
	}{
		{"deploy calc", func() error { return d.Deploy(mustParse(t, calcModesXML)) }},
		{"deploy disp", func() error { return d.Deploy(mustParse(t, dispModesXML)) }},
		{"deploy stochastic", func() error {
			return d.Deploy(mustParse(t, `<component name="stoch" type="periodic" cpuusage="0.2">
  <implementation bincode="demo.Stoch"/>
  <periodictask frequence="100" runoncup="1" priority="1"/>
  <budget dist="normal(0.2,0.01)" p="0.95"/>
</component>`))
		}},
		{"downgrade calc", func() error { return d.Downgrade("calc", "test") }},
		{"downgrade calc again", func() error { return d.Downgrade("calc", "test") }},
		{"allow promotion", func() error { return d.AllowPromotion("calc") }},
		{"revoke disp", func() error { return d.RevokeBudget("disp", "test") }},
		{"restore disp", func() error { return d.RestoreBudget("disp") }},
		{"remove stoch", func() error { return d.Remove("stoch") }},
		{"suspend calc", func() error { return d.Suspend("calc") }},
		{"resume calc", func() error { return d.Resume("calc") }},
	}
	for _, s := range steps {
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		checkComponents(t, d, s.name)
	}

	b := r.deployBundle(t, "demo.batch", []string{
		churnXML("bp", 2, 0.05, nil, []string{"bt"}),
		churnXML("bc", 2, 0.05, []string{"bt"}, nil),
		churnXML("aa", 3, 0.05, []string{"bt"}, nil),
	})
	checkComponents(t, d, "bundle deploy")
	if err := b.Stop(); err != nil {
		t.Fatal(err)
	}
	checkComponents(t, d, "bundle stop")
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	checkComponents(t, d, "bundle restart")

	first := d.Components()
	for _, info := range first {
		info.Bindings["scribble"] = "x"
	}
	checkComponents(t, d, "after scribbling on a snapshot's Bindings")
}

// TestComponentsConcurrentReaders runs Components and Component from
// several goroutines while another deploys and removes, so the race
// detector sees the cached table and the per-record derived fields being
// built and reset concurrently.
func TestComponentsConcurrentReaders(t *testing.T) {
	_, _, d := newRig(t)
	if err := d.Deploy(mustParse(t, calcModesXML)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				infos := d.Components()
				for i := 1; i < len(infos); i++ {
					if infos[i-1].Name >= infos[i].Name {
						t.Errorf("Components not name-sorted: %q then %q", infos[i-1].Name, infos[i].Name)
						return
					}
				}
				d.Component("calc")
			}
		}()
	}
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("w%d", i%7)
		if err := d.Deploy(mustParse(t, churnXML(name, 1, 0.01, nil, nil))); err != nil {
			t.Error(err)
			break
		}
		if err := d.Remove(name); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	checkComponents(t, d, "after concurrent readers")
}
