package cluster

import (
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/net"
)

// The barrier keeps each node's export set and its own report cached
// against the DRCR view epoch and the catalog's placement generation.
// The helpers below are the full recompute those caches replace: they
// read the whole component table (DRCR.Components) at every call.

// admittedComps lists a node's admitted components (ACTIVE or
// SUSPENDED — the states whose contracts count), sorted by name.
func admittedComps(n *Node) []core.Info {
	var out []core.Info
	for _, info := range n.drcr.Components() {
		if info.State == core.Active || info.State == core.Suspended {
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// recomputeExports is the export set from the full component table.
func recomputeExports(c *Cluster, n *Node) map[expKey]descriptor.Port {
	set := map[expKey]descriptor.Port{}
	for _, info := range admittedComps(n) {
		pl := c.placements[info.Name]
		if pl == nil {
			continue
		}
		for _, out := range pl.desc.OutPorts {
			set[expKey(out.Name+"|"+info.Name+"@"+n.Name())] = out
		}
	}
	return set
}

// recomputeReport is a node's own report from the full component table:
// the component→mode map, the admitted count and the wire note.
func recomputeReport(n *Node) (map[string]int, int, string) {
	comps := map[string]int{}
	var parts []string
	infos := admittedComps(n)
	for _, info := range infos {
		comps[info.Name] = info.Mode
		parts = append(parts, info.Name+"="+strconv.Itoa(info.Mode))
	}
	return comps, len(infos), strings.Join(parts, ",")
}

// checkCaches asserts, for every node, that the cached state equals the
// full recompute: the exported set after a (possibly gated) provision
// stage, the node's own report, and every report the node holds from a
// peer. The extra stage runs at the instant of the barrier just closed,
// so its provision messages leave with that barrier's traffic.
func checkCaches(t *testing.T, c *Cluster, step int) {
	t.Helper()
	for _, n := range c.nodes {
		want := recomputeExports(c, n)
		c.stageProvisions(c.now, n)
		if !reflect.DeepEqual(n.exported, want) {
			t.Fatalf("step %d node %d: exported %v, full recompute %v", step, n.id, n.exported, want)
		}
		if !reflect.DeepEqual(n.shmTopics, shmTopicsOf(n.exported)) {
			t.Fatalf("step %d node %d: stale SHM topic list %v for exports %v", step, n.id, n.shmTopics, n.exported)
		}
		comps, admitted, note := recomputeReport(n)
		r := n.localReport()
		if !reflect.DeepEqual(r.comps, comps) || r.admitted != admitted || r.note != note {
			t.Fatalf("step %d node %d: own report %v/%d/%q, recompute %v/%d/%q",
				step, n.id, r.comps, r.admitted, r.note, comps, admitted, note)
		}
		checkNames(t, step, n.id, r)
		for id, pr := range n.reports {
			if id == n.id {
				continue
			}
			fresh := decodeReport(net.Message{Note: pr.note}, nil)
			if !reflect.DeepEqual(pr.comps, fresh.comps) || !reflect.DeepEqual(pr.names, fresh.names) {
				t.Fatalf("step %d node %d: report from %d holds %v/%v, its note %q decodes to %v/%v",
					step, n.id, id, pr.comps, pr.names, pr.note, fresh.comps, fresh.names)
			}
			checkNames(t, step, n.id, pr)
		}
	}
}

// shmTopicsOf is the sorted distinct SHM topic list of an export set.
func shmTopicsOf(exported map[expKey]descriptor.Port) []string {
	seen := map[string]bool{}
	var out []string
	for key, port := range exported {
		topic, _, _ := strings.Cut(string(key), "|")
		if port.Interface == descriptor.SHM && !seen[topic] {
			seen[topic] = true
			out = append(out, topic)
		}
	}
	sort.Strings(out)
	return out
}

// checkNames asserts a report's names are exactly its comps keys, sorted.
func checkNames(t *testing.T, step, node int, r *report) {
	t.Helper()
	keys := make([]string, 0, len(r.comps))
	for name := range r.comps {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	if len(keys) != len(r.names) || (len(keys) > 0 && !reflect.DeepEqual(keys, r.names)) {
		t.Fatalf("step %d node %d: report names %v, comps keys %v", step, node, r.names, keys)
	}
}

// TestBarrierCachesMatchRecompute drives a seeded 4-node run through
// partitions and heals, cluster deploys and removes, node-local
// deploys that share a catalog name, revocations and restores,
// suspends and resumes, and mode swaps, and checks the cached export sets and reports against the
// full recompute at every barrier.
func TestBarrierCachesMatchRecompute(t *testing.T) {
	c := mkCluster(t, Config{Nodes: 4, NumCPUs: 1, Seed: 29,
		Net: net.Config{DupProb: 0.05}})
	pool := map[string]string{
		"prod": prodXML, "cons": consXML, "flex": flexXML, "hog": hogXML,
		"esrc": evacSrcXML, "emid": evacMidXML, "esnk": evacSnkXML,
	}
	names := make([]string, 0, len(pool))
	for name := range pool {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(29))
	pick := func() string { return names[rng.Intn(len(names))] }
	node := func() *Node { return c.nodes[rng.Intn(len(c.nodes))] }
	acts := map[string]int{}
	for step := 0; step < 1200; step++ {
		if rng.Intn(4) == 0 {
			name := pick()
			switch k := rng.Intn(11); k {
			case 0, 1:
				if c.DeployXMLOn(rng.Intn(len(c.nodes)), pool[name]) == nil {
					acts["deploy"]++
				}
			case 2:
				if c.Remove(name) == nil {
					acts["remove"]++
				}
			case 3:
				if c.RevokeBudget(name, "test") == nil {
					acts["revoke"]++
				}
			case 4:
				if c.RestoreBudget(name) == nil {
					acts["restore"]++
				}
			case 5:
				// flex is the one component with a degraded mode.
				for _, n := range c.nodes {
					if n.drcr.Downgrade("flex", "test") == nil {
						acts["downgrade"]++
					}
				}
			case 6:
				for _, n := range c.nodes {
					if n.drcr.AllowPromotion("flex") == nil {
						acts["promote"]++
					}
				}
			case 7:
				desc, err := descriptor.Parse(pool[name])
				if err != nil {
					t.Fatal(err)
				}
				if node().drcr.Deploy(desc) == nil {
					acts["local"]++
				}
			case 8:
				c.Net().SchedulePartition(c.Now().Add(c.step), time.Duration(5+rng.Intn(15))*time.Millisecond, rng.Intn(len(c.nodes)))
				acts["partition"]++
			case 9:
				if node().drcr.Suspend(name) == nil {
					acts["suspend"]++
				}
			case 10:
				for _, n := range c.nodes {
					if n.drcr.Resume(name) == nil {
						acts["resume"]++
					}
				}
			}
		}
		if err := c.Run(c.Step()); err != nil {
			t.Fatal(err)
		}
		checkCaches(t, c, step)
	}
	t.Logf("actions: %v", acts)
	for _, a := range []string{"deploy", "remove", "revoke", "restore", "downgrade", "promote", "local", "partition", "suspend", "resume"} {
		if acts[a] == 0 {
			t.Errorf("the run never exercised %s (%v)", a, acts)
		}
	}
}

// TestQuietBarrierAllocFree pins the change gates: once the cluster has
// settled, staging a node's provisions and report allocates nothing,
// for the leader (whose report stays local) and for a follower (whose
// report goes on the wire). Every measurement sits between two real
// barriers, so the network's send queues are drained as in a run.
func TestQuietBarrierAllocFree(t *testing.T) {
	c := mkCluster(t, Config{Nodes: 3, Seed: 31})
	for i, src := range []string{prodXML, evacSrcXML, consXML} {
		if err := c.DeployXMLOn(i, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(40 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	events := make([]int, len(c.nodes))
	for i, n := range c.nodes {
		events[i] = len(n.drcr.Events())
		if i < 2 && len(n.exported) == 0 {
			t.Fatalf("node %d exports nothing; the check would be vacuous", i)
		}
	}
	for i := 0; i < 20; i++ {
		if err := c.Run(c.Step()); err != nil {
			t.Fatal(err)
		}
		for _, n := range c.nodes[:2] {
			if allocs := testing.AllocsPerRun(1, func() {
				c.stageProvisions(c.now, n)
				c.stageReport(c.now, n)
			}); allocs != 0 {
				t.Fatalf("barrier %d node %d (leader %d): quiet staging allocates %v", i, n.id, n.leader, allocs)
			}
		}
	}
	for i, n := range c.nodes {
		if got := len(n.drcr.Events()); got != events[i] {
			t.Fatalf("node %d saw %d lifecycle events during the quiet barriers", i, got-events[i])
		}
	}
	if c.nodes[0].leader != 0 || c.nodes[1].leader != 0 {
		t.Fatalf("leaders %d/%d, want node 0 leading node 1", c.nodes[0].leader, c.nodes[1].leader)
	}
}
