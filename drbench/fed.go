package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/net"
	"repro/internal/sim"
)

const (
	fedNodes = 16
	fedCPUs  = 2
	fedPairs = 64
	// fedHosts nodes host the producers and as many the consumers; the
	// remaining nodes start empty and take evacuees.
	fedHosts = 7
	// fedLossMin is the shortest cut; it outlasts the 6 ms node-loss
	// timeout, so every cut is detected and triggers evacuation.
	fedLossMin = 8 * time.Millisecond
)

// cut is one scheduled partition: Side is isolated from the rest for
// Dur, starting at the absolute simulated time At.
type cut struct {
	At   time.Duration
	Dur  time.Duration
	Side []int
}

// fedIn is everything the federation workload hands the program.
type fedIn struct {
	Seed   int64
	Comps  []comp
	Home   map[string]int
	Cuts   []cut
	Script script
	descs  map[string]*descriptor.Component
	srcs   map[string]string
}

// fedInput: 16 nodes with 2 simulated CPUs each and 64 producer/consumer
// pairs, producers on nodes 0–6 and consumers on nodes 7–13, so every
// pair is wired across the network; nodes 14 and 15 start empty. Links
// duplicate 1 % of messages. Seeded partition/heal cycles isolate one
// empty node for 8–20 ms, longer than the node-loss timeout, so failure
// detection, split leadership and post-heal reconciliation run; one cut
// isolates nodes 12–15 for 40 ms, so evacuation and migration run too.
// Each batch reads Converged(), issues about one cluster write and reads
// twice more.
func fedInput(seed int64, batches int) (*fedIn, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &fedIn{Seed: seed, Home: map[string]int{}}
	var all []string
	for i := 0; i < fedPairs; i++ {
		t := fmt.Sprintf("t%02d", i)
		p := comp{Name: fmt.Sprintf("pr%02d", i), CPU: i % fedCPUs, Hz: 500, Usage: 0.10, Prio: 3,
			Out: []string{t}, Bincode: binProducer}
		c := comp{Name: fmt.Sprintf("co%02d", i), CPU: i % fedCPUs, Hz: 250, Usage: 0.15, Prio: 4,
			EcoHz: 100, EcoUse: 0.05, In: []string{t}, Bincode: binConsumer}
		in.Comps = append(in.Comps, p, c)
		in.Home[p.Name] = i % fedHosts
		in.Home[c.Name] = fedHosts + i%fedHosts
		all = append(all, p.Name, c.Name)
	}
	// Two producers need 95 % of their CPU at the lowest priority, so
	// every one of their jobs misses while the rest of their CPU keeps its
	// deadlines; the client leaves them alone.
	rogues := map[string]bool{}
	for len(rogues) < 2 {
		i := rng.Intn(fedPairs)
		in.Comps[2*i].ExecUS, in.Comps[2*i].Prio = 1900, 9
		rogues[in.Comps[2*i].Name] = true
	}
	in.Script = genScript(scriptSpec{
		Batches:  batches,
		SliceMin: 500 * time.Microsecond, SliceMax: 2 * time.Millisecond,
		Disrupt: 0.5, DelayMin: 5, DelayMax: 40, Stale: 0.5,
		Pairs: []pair{
			{Do: "remove", Undo: "deploy_on", Weight: 2},
			{Do: "revoke", Undo: "restore", Weight: 1},
		},
		Home:   in.Home,
		Always: []string{"converged"},
		Reads:  2,
		ReadMix: []readMix{
			{Verb: "global_view", Weight: 1, Whole: true},
			{Verb: "why", Weight: 1},
		},
		Targets: without(in.Comps, rogues), ReadTargets: all,
		Tail: 150 * time.Millisecond,
	}, rng)
	// Partition/heal cycles over the timed phase, ending 30 ms before
	// it does so the last heal converges inside it.
	end := warmup + in.Script.simTime() - in.Script.Tail - 30*time.Millisecond
	long := warmup + time.Duration(rng.Int63n(int64(end-warmup)/2))
	at := warmup + 10*time.Millisecond
	for {
		c := cut{At: at, Dur: fedLossMin + time.Duration(rng.Int63n(int64(12*time.Millisecond)))}
		if long > 0 && at >= long {
			c.Dur = 40 * time.Millisecond
			for n := fedNodes - fedNodes/4; n < fedNodes; n++ {
				c.Side = append(c.Side, n)
			}
			long = 0
		} else {
			c.Side = []int{2*fedHosts + rng.Intn(fedNodes-2*fedHosts)}
		}
		if c.At+c.Dur > end {
			break
		}
		in.Cuts = append(in.Cuts, c)
		at = c.At + c.Dur + 30*time.Millisecond + time.Duration(rng.Int63n(int64(30*time.Millisecond)))
	}
	in.descs = map[string]*descriptor.Component{}
	in.srcs = map[string]string{}
	for _, c := range in.Comps {
		src := c.xml()
		d, err := descriptor.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("descriptor %s: %w", c.Name, err)
		}
		in.descs[c.Name] = d
		in.srcs[c.Name] = src
	}
	return in, nil
}

// fed is one federated stack under test.
type fed struct {
	in    *fedIn
	c     *cluster.Cluster
	tr    *tracker
	heals []float64 // simulated ms from each heal to the first Converged()
	// next is the index of the first cut whose heal has not converged.
	next      int
	activeSum float64
	activeN   int
}

func setupFed(in *fedIn, tr *tracer) (target, error) {
	f := &fed{in: in, tr: newTracker()}
	var err error
	tr.do("cluster.new", func() {
		f.c, err = cluster.New(cluster.Config{
			Nodes: fedNodes, NumCPUs: fedCPUs, Seed: uint64(in.Seed),
			// No random loss: the control plane never retransmits, so lost
			// placement messages would leave catalog and nodes disagreeing
			// for good (see README.md); partitions still drop traffic.
			Net: net.Config{DupProb: 0.01},
		})
		if err == nil {
			err = f.c.RegisterBody(binProducer, producerBody)
		}
		if err == nil {
			err = f.c.RegisterBody(binConsumer, consumerBody)
		}
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < fedNodes; i++ {
		f.tr.attach(f.c.Node(i).DRCR())
	}
	for _, c := range in.Comps {
		if tr == nil {
			err = f.c.DeployXMLOn(in.Home[c.Name], in.srcs[c.Name])
		} else {
			var d *descriptor.Component
			tr.do("descriptor.parse", func() { d, err = descriptor.Parse(in.srcs[c.Name]) })
			if err == nil {
				tr.do("cluster.deploy_on", func() { err = f.c.DeployOn(in.Home[c.Name], d) })
			}
		}
		if err != nil {
			f.close()
			return nil, fmt.Errorf("deploy %s: %w", c.Name, err)
		}
	}
	for _, c := range in.Cuts {
		f.c.Net().SchedulePartition(sim.Time(c.At), c.Dur, c.Side...)
	}
	f.tr.sweep()
	return f, nil
}

func (f *fed) close() { f.c.Close() }

func (f *fed) do(c *client, o op) {
	tr, t := c.tr, o.Target
	var err error
	call := func(name string, g func() error) {
		tr.do(name, func() { err = g() })
	}
	g := func() error {
		switch o.Verb {
		case "remove":
			call("cluster.remove", func() error { return f.c.Remove(t) })
		case "deploy_on":
			if tr == nil {
				err = f.c.DeployXMLOn(o.Node, f.in.srcs[t])
				break
			}
			var d *descriptor.Component
			call("descriptor.parse", func() (e error) { d, e = descriptor.Parse(f.in.srcs[t]); return })
			if err == nil {
				call("cluster.deploy_on", func() error { return f.c.DeployOn(o.Node, d) })
			}
		case "revoke":
			call("cluster.revoke", func() error { return f.c.RevokeBudget(t, "federation client") })
		case "restore":
			call("cluster.restore", func() error { return f.c.RestoreBudget(t) })
		case "global_view":
			call("cluster.global_view", func() error { f.c.GlobalView(); return nil })
		case "why":
			call("cluster.why", func() error { f.c.Why(t); return nil })
		case "converged":
			var ok bool
			call("cluster.converged", func() error { ok = f.c.Converged(); return nil })
			f.noteConverged(ok)
		default:
			err = fmt.Errorf("unknown verb %q", o.Verb)
		}
		return err
	}
	if isWrite(o.Verb) {
		c.write(o.Verb, g)
	} else {
		c.read(o.Verb, g)
	}
}

// noteConverged closes every healed cut once the cluster reads converged.
func (f *fed) noteConverged(ok bool) {
	now := time.Duration(f.c.Now())
	for ok && f.next < len(f.in.Cuts) {
		c := f.in.Cuts[f.next]
		healed := c.At + c.Dur
		if now < healed {
			return
		}
		f.heals = append(f.heals, float64(now-healed)/1e6)
		f.next++
	}
}

func (f *fed) run(tr *tracer, d time.Duration) error {
	var err error
	tr.do("cluster.run", func() { err = f.c.Run(d) })
	f.activeSum += float64(f.tr.activeNames) / float64(len(f.in.Comps))
	f.activeN++
	return err
}

func (f *fed) tail(d time.Duration) error { return f.c.Run(d) }

func (f *fed) sim() simStats {
	f.tr.sweep()
	s := simStats{jitterUS: f.tr.jitterUS(), heals: f.heals}
	s.jobs, s.misses = f.tr.jobs()
	s.activeRatio = ratio(f.activeSum, float64(f.activeN))
	return s
}

func (f *fed) counts() layerCounts {
	var c layerCounts
	addPlane(&c, f.c.Plane().Snapshot())
	for i := 0; i < fedNodes; i++ {
		n := f.c.Node(i)
		addPlane(&c, n.Plane().Snapshot())
		c.events += n.Kernel().EventsFired()
	}
	f.tr.sweep()
	c.jobs, c.misses = f.tr.jobs()
	s := f.c.Net().Stats()
	c.sent, c.delivered, c.dropped, c.duplicated = s.Sent, s.Delivered, s.Dropped, s.Duplicated
	c.nodes = fedNodes
	c.steps = uint64(f.c.Now()) / uint64(f.c.Step())
	return c
}

// check runs the invariants on every node, the network ledger, and the
// federation's convergence after the quiet tail.
func (f *fed) check() error {
	for i := 0; i < fedNodes; i++ {
		d := f.c.Node(i).DRCR()
		where := fmt.Sprintf("node %d", i)
		if err := checkLoad(where, d.GlobalView()); err != nil {
			return err
		}
		if err := checkWiring(where, d.Components(), f.in.descs); err != nil {
			return err
		}
		if err := checkTransitions(where, d.Events()); err != nil {
			return err
		}
	}
	if err := checkLedger(f.c.Net().Stats()); err != nil {
		return err
	}
	if !f.c.Converged() {
		return fmt.Errorf("federation: not converged after the quiet tail")
	}
	return nil
}

// misplaced lists, after the quiet tail, every generated component the
// federation does not place exactly once. It is reported, not enforced:
// see README.md.
func (f *fed) misplaced() []string {
	var infos [][]core.Info
	for i := 0; i < fedNodes; i++ {
		infos = append(infos, f.c.Node(i).DRCR().Components())
	}
	bad := misplacedComps(f.c.GlobalView().Placements, f.in.Comps, infos)
	for _, b := range bad {
		fmt.Fprintln(os.Stderr, "misplaced:", b)
	}
	return bad
}

// misplacedComps: a component is placed exactly once when the catalog
// names a node, it is deployed there, and no other node admits it
// (ACTIVE or SUSPENDED).
func misplacedComps(catalog map[string]int, comps []comp, infos [][]core.Info) []string {
	where := map[string][]int{}
	admitted := map[string][]int{}
	for n, list := range infos {
		for _, info := range list {
			where[info.Name] = append(where[info.Name], n)
			if info.State == core.Active || info.State == core.Suspended {
				admitted[info.Name] = append(admitted[info.Name], n)
			}
		}
	}
	var bad []string
	for _, c := range comps {
		home, ok := catalog[c.Name]
		onHome := false
		for _, n := range where[c.Name] {
			onHome = onHome || n == home
		}
		a := admitted[c.Name]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s missing from the catalog (deployed on nodes %v)", c.Name, where[c.Name]))
		case !onHome:
			bad = append(bad, fmt.Sprintf("%s catalogued on node %d but deployed on nodes %v", c.Name, home, where[c.Name]))
		case len(a) > 1 || (len(a) == 1 && a[0] != home):
			bad = append(bad, fmt.Sprintf("%s catalogued on node %d but admitted on nodes %v", c.Name, home, a))
		}
	}
	return bad
}
