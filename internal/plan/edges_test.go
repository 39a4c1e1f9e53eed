package plan

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/descriptor"
	"repro/internal/policy"
)

// compileEdgesScan is the reference wiring table: for every enabled
// member inport it scans every scheduled member's outports, then the
// external local providers, and keeps the first compatible one in stable
// origin order — the quadratic scan compileEdges' outport index replaces.
func compileEdgesScan(p *Plan, descs []*descriptor.Component, env Env) []Edge {
	members := map[string]*descriptor.Component{}
	var names []string
	for _, d := range descs {
		members[d.Name] = d
		names = append(names, d.Name)
	}
	sort.Strings(names)
	extLocal := map[portKey][]ExtProvider{}
	extRemote := map[portKey][]ExtProvider{}
	for _, ep := range env.Providers {
		if ep.Remote {
			extRemote[keyOf(ep.Port)] = append(extRemote[keyOf(ep.Port)], ep)
		} else {
			extLocal[keyOf(ep.Port)] = append(extLocal[keyOf(ep.Port)], ep)
		}
	}
	for _, m := range []map[portKey][]ExtProvider{extLocal, extRemote} {
		for _, eps := range m {
			sort.Slice(eps, func(i, j int) bool { return eps[i].Origin < eps[j].Origin })
		}
	}
	scheduled := map[string]bool{}
	for _, n := range p.Schedule {
		scheduled[n] = true
	}
	var edges []Edge
	for _, name := range names {
		d := members[name]
		if !d.Enabled {
			continue
		}
		for _, in := range d.InPorts {
			var modes []string
			for mi := 0; mi < d.NumModes(); mi++ {
				if d.RequiresInport(mi, in.Name) {
					modes = append(modes, d.ModeName(mi))
				}
			}
			e := Edge{Consumer: name, Inport: in.Name, Modes: modes}
			k := keyOf(in)
			type cand struct {
				origin string
				port   descriptor.Port
				ext    bool
			}
			var cands []cand
			for _, pn := range names {
				if pn == name || !scheduled[pn] {
					continue
				}
				for _, out := range members[pn].OutPorts {
					if keyOf(out) == k {
						cands = append(cands, cand{pn, out, false})
					}
				}
			}
			for _, ep := range extLocal[k] {
				if ep.Origin != name {
					cands = append(cands, cand{ep.Origin, ep.Port, true})
				}
			}
			sort.SliceStable(cands, func(i, j int) bool { return cands[i].origin < cands[j].origin })
			for _, c := range cands {
				if c.port.CanSatisfy(in) {
					e.Provider, e.External = c.origin, c.ext
					break
				}
			}
			if e.Provider == "" {
				for _, ep := range extRemote[k] {
					if ep.Port.CanSatisfy(in) {
						e.Provider, e.External = ep.Origin, true
						break
					}
				}
			}
			edges = append(edges, e)
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Consumer != edges[j].Consumer {
			return edges[i].Consumer < edges[j].Consumer
		}
		return edges[i].Inport < edges[j].Inport
	})
	return edges
}

// randPort renders one port element on a small topic alphabet, so keys
// collide often: mostly SHM Integer ports, a few sizes, and on some
// ports a version (outports) or version range (inports) or a datatype.
func randPort(rng *rand.Rand, dir, topic string) string {
	iface := []string{"RTAI.SHM", "RTAI.SHM", "RTAI.SHM", "RTAI.Mailbox"}[rng.Intn(4)]
	typ := []string{"Integer", "Integer", "Integer", "Byte"}[rng.Intn(4)]
	size := []int{8, 16, 64}[rng.Intn(3)]
	if dir == "inport" {
		size = 8 << (2 * rng.Intn(2)) // 8 or 32: most providers fit
	}
	extra := ""
	switch rng.Intn(8) {
	case 0:
		if dir == "outport" {
			extra = fmt.Sprintf(` version="%s"`, []string{"1.2", "2.0"}[rng.Intn(2)])
		} else {
			extra = ` version="[1.0,2.0)"`
		}
	case 1:
		extra = fmt.Sprintf(` datatype="%s[%d]"`, map[string]string{"Integer": "int32", "Byte": "byte"}[typ], 1+rng.Intn(2))
	}
	return fmt.Sprintf(`  <%s name=%q interface=%q type=%q size="%d"%s/>`+"\n", dir, topic, iface, typ, size, extra)
}

// randEdgeCase builds a seeded bundle plus external providers that
// exercise every provider-choice rule: several providers on one key,
// external local providers interleaved by name, external ones named
// after a member (self-provision: a consumer never binds to its own
// name), remote providers, disabled members.
func randEdgeCase(rng *rand.Rand) ([]*descriptor.Component, Env, error) {
	topics := []string{"ta", "tb", "tc", "td"}
	n := 4 + rng.Intn(12)
	var descs []*descriptor.Component
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("m%02d", rng.Intn(40))
		dup := false
		for _, d := range descs {
			dup = dup || d.Name == name
		}
		if dup {
			continue
		}
		var b strings.Builder
		enabled := "true"
		if rng.Intn(8) == 0 {
			enabled = "false"
		}
		fmt.Fprintf(&b, `<component name=%q type="periodic" cpuusage="0.01" enabled=%q>`+"\n", name, enabled)
		b.WriteString(`  <implementation bincode="plan.Body"/>` + "\n")
		fmt.Fprintf(&b, `  <periodictask frequence="100" runoncup="%d" priority="5"/>`+"\n", rng.Intn(2))
		// Port names are unique per component: inports take a prefix of
		// a topic permutation, outports the topics after it.
		perm := rng.Perm(len(topics))
		nin := rng.Intn(3)
		for _, t := range perm[:nin] {
			b.WriteString(randPort(rng, "inport", topics[t]))
		}
		for _, t := range perm[nin : nin+rng.Intn(3)] {
			b.WriteString(randPort(rng, "outport", topics[t]))
		}
		b.WriteString(`</component>`)
		d, err := descriptor.Parse(b.String())
		if err != nil {
			return nil, Env{}, err
		}
		descs = append(descs, d)
	}
	env := Env{NumCPUs: 2, Bound: 1.0, View: policy.View{NumCPUs: 2}}
	for i := rng.Intn(6); i > 0; i-- {
		origin := fmt.Sprintf("m%02d", rng.Intn(40)) // may equal a member's name
		remote := rng.Intn(3) == 0
		if remote {
			origin += "@n1"
		}
		src := fmt.Sprintf(`<component name="x" type="periodic" cpuusage="0.01">
  <implementation bincode="plan.Body"/>
  <periodictask frequence="100" runoncup="0" priority="5"/>
%s</component>`, randPort(rng, "outport", topics[rng.Intn(len(topics))]))
		d, err := descriptor.Parse(src)
		if err != nil {
			return nil, Env{}, err
		}
		env.Providers = append(env.Providers, ExtProvider{Origin: origin, Remote: remote, Port: d.OutPorts[0]})
	}
	return descs, env, nil
}

// TestCompileEdgesMatchesScan differentially checks the indexed wiring
// table against the reference scan over seeded random bundles.
func TestCompileEdgesMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	compared, bound, contested := 0, 0, 0
	for iter := 0; iter < 1000; iter++ {
		descs, env, err := randEdgeCase(rng)
		if err != nil {
			t.Fatalf("case %d: %v", iter, err)
		}
		p, err := Compile(descs, env)
		var rej *RejectError
		if errors.As(err, &rej) {
			continue // typed conflict: no wiring table to compare
		}
		if err != nil {
			t.Fatalf("case %d: %v", iter, err)
		}
		want := compileEdgesScan(p, descs, env)
		if !reflect.DeepEqual(p.Edges, want) {
			t.Fatalf("case %d: edges differ\n got %+v\nwant %+v", iter, p.Edges, want)
		}
		compared++
		for _, e := range p.Edges {
			if e.Provider != "" {
				bound++
			}
		}
		// Keys with more than one provider are where choice order matters.
		provs := map[portKey]int{}
		for _, d := range descs {
			for _, out := range d.OutPorts {
				provs[keyOf(out)]++
			}
		}
		for _, ep := range env.Providers {
			provs[keyOf(ep.Port)]++
		}
		for _, n := range provs {
			if n > 1 {
				contested++
			}
		}
	}
	t.Logf("%d cases compared, %d bound edges, %d contested keys", compared, bound, contested)
	if compared < 400 || bound < 600 || contested < 900 {
		t.Fatalf("%d cases compared, %d bound edges, %d contested keys: the generator lost coverage",
			compared, bound, contested)
	}
}
