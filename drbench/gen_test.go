package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// The same seed gives the same inputs; another seed gives others.
func TestScriptsAreSeeded(t *testing.T) {
	for _, w := range []struct {
		name string
		gen  func(seed int64) (script, any)
	}{
		{"steady", func(s int64) (script, any) {
			in, err := steadyInput(s, sizing{Groups: 20, Batches: 200})
			if err != nil {
				t.Fatal(err)
			}
			return in.Script, in.Bundles
		}},
		{"churn", func(s int64) (script, any) {
			in, err := churnInput(s, sizing{Groups: 40, Batches: 200})
			if err != nil {
				t.Fatal(err)
			}
			return in.Script, in.Bundles
		}},
		{"federation", func(s int64) (script, any) {
			in, err := fedInput(s, 400)
			if err != nil {
				t.Fatal(err)
			}
			return in.Script, in.Cuts
		}},
	} {
		a, ai := w.gen(7)
		b, bi := w.gen(7)
		c, _ := w.gen(8)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ai, bi) {
			t.Errorf("%s: seed 7 gave two different inputs", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same script", w.name)
		}
	}
}

// Every disruption in a script is undone by the end of it.
func TestEveryDisruptionIsUndone(t *testing.T) {
	in, err := churnInput(5, sizing{Groups: 40, Batches: 300})
	if err != nil {
		t.Fatal(err)
	}
	undo := map[string]string{}
	for _, p := range []pair{{Do: "suspend", Undo: "resume"}, {Do: "downgrade", Undo: "promote"},
		{Do: "remove", Undo: "deploy"}, {Do: "disable", Undo: "enable"}, {Do: "revoke", Undo: "restore"},
		{Do: "bundle_stop", Undo: "bundle_start"}} {
		undo[p.Do] = p.Undo
	}
	open := map[string]int{}
	for _, b := range in.Script.Batches {
		for _, o := range b.Ops {
			if u, ok := undo[o.Verb]; ok {
				open[u+" "+o.Target]++
			} else if isWrite(o.Verb) {
				open[o.Verb+" "+o.Target]--
			}
		}
	}
	for k, n := range open {
		if n != 0 {
			t.Errorf("%s: %d disruptions left without their undo", k, n)
		}
	}
}

// Bounded disruption: on a long churn run the ACTIVE share stays in a
// band instead of decaying as undone disruptions would make it.
func TestChurnAvailabilityStaysInBand(t *testing.T) {
	in, err := churnInput(11, sizing{Groups: 40, Batches: 1200})
	if err != nil {
		t.Fatal(err)
	}
	n, err := setupNode(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	cl := newClient(nil)
	var samples []float64
	for _, b := range in.Script.Batches {
		for _, o := range b.Ops {
			n.do(cl, o)
		}
		if err := n.run(nil, b.Slice); err != nil {
			t.Fatal(err)
		}
		samples = append(samples, float64(n.tr.activeNames)/float64(len(in.descs)))
	}
	q := len(samples) / 4
	first, last := mean(samples[:q]), mean(samples[len(samples)-q:])
	if last < first-0.05 || last > first+0.05 {
		t.Fatalf("ACTIVE share drifts: first quarter %.3f, last quarter %.3f", first, last)
	}
	if err := n.tail(in.Script.Tail); err != nil {
		t.Fatal(err)
	}
	if err := checkNode(n); err != nil {
		t.Fatal(err)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// BENCHMARK.json at the repository root names exactly the metrics this
// command prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []string) {
		var names []string
		for _, m := range got {
			names = append(names, m.Name)
			if units[m.Name] != m.Unit {
				t.Errorf("%s %s: unit %q, the command prints %q", kind, m.Name, m.Unit, units[m.Name])
			}
		}
		sort.Strings(names)
		w := append([]string(nil), want...)
		sort.Strings(w)
		if !reflect.DeepEqual(names, w) {
			t.Errorf("%s metrics differ:\n json %v\n code %v", kind, names, w)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndNames)
	check("per_layer", spec.PerLayer, perLayerNames())
}

// perLayerNames lists the metrics a traced run reports.
func perLayerNames() []string {
	e := map[string]bool{}
	for _, n := range endToEndNames {
		e[n] = true
	}
	var out []string
	for n := range units {
		if !e[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
