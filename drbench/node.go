package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/contract"
	"repro/internal/descriptor"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/osgi"
)

// bundleSpec is one bundle of generated descriptors.
type bundleSpec struct {
	Name  string
	Comps []comp
}

// nodeInput is everything a single-node workload hands the program.
type nodeInput struct {
	CPUs    int
	Seed    int64
	Bundles []bundleSpec
	Script  script
	// descs and srcs index every generated descriptor by component name;
	// res holds each bundle's resources (path → XML), rendered once so
	// that set-up times only the program.
	descs map[string]*descriptor.Component
	srcs  map[string]string
	res   map[string]map[string]string
}

// index parses every descriptor once, for deploys and the output check.
func (in *nodeInput) index() error {
	in.descs = map[string]*descriptor.Component{}
	in.srcs = map[string]string{}
	in.res = map[string]map[string]string{}
	for _, b := range in.Bundles {
		res := map[string]string{}
		in.res[b.Name] = res
		for _, c := range b.Comps {
			src := c.xml()
			d, err := descriptor.Parse(src)
			if err != nil {
				return fmt.Errorf("descriptor %s: %w", c.Name, err)
			}
			in.descs[c.Name] = d
			in.srcs[c.Name] = src
			res["OSGI-INF/"+c.Name+".xml"] = src
		}
	}
	return nil
}

// node is one single-node stack under test.
type node struct {
	in      *nodeInput
	sys     *drcom.System
	guard   *contract.Guard
	bundles map[string]*osgi.Bundle
	tr      *tracker
	heals   *heals
	// samples of the ACTIVE share, one per slice.
	activeSum float64
	activeN   int
}

// setup boots the stack and deploys every bundle. The traced set-up
// issues, span by span, the same public calls DeployBundle makes.
func setupNode(in *nodeInput, tr *tracer) (*node, error) {
	n := &node{in: in, bundles: map[string]*osgi.Bundle{}, tr: newTracker()}
	n.heals = &heals{t: n.tr}
	var err error
	tr.do("core.new_system", func() {
		n.sys, err = drcom.NewSystem(drcom.Config{NumCPUs: in.CPUs, Seed: uint64(in.Seed)})
		if err == nil {
			err = n.sys.RegisterBody(binProducer, producerBody)
		}
		if err == nil {
			err = n.sys.RegisterBody(binConsumer, consumerBody)
		}
	})
	if err != nil {
		return nil, err
	}
	n.tr.attach(n.sys.DRCR())
	for _, b := range in.Bundles {
		var bd *osgi.Bundle
		if tr == nil {
			bd, err = n.sys.DeployBundle(b.Name, "1.0.0", in.res[b.Name])
		} else {
			bd, err = deployBundleTraced(n.sys, tr, b.Name, in.res[b.Name])
		}
		if err != nil {
			n.close()
			return nil, fmt.Errorf("deploy bundle %s: %w", b.Name, err)
		}
		n.bundles[b.Name] = bd
	}
	tr.do("contract.start", func() {
		// A constant quarantine (no backoff growth) keeps the rogues'
		// violate–revoke–restore cycle stationary over any run length.
		n.guard, err = contract.New(n.sys.DRCR(), contract.Options{BackoffFactor: 1})
		if err == nil {
			err = n.guard.Start()
		}
	})
	if err != nil {
		n.close()
		return nil, err
	}
	n.tr.sweep()
	return n, nil
}

// deployBundleTraced is drcom.System.DeployBundle spelled out as its
// public calls, each in its own span: sniff and parse per resource, plan
// compile, bundle install, bundle start.
func deployBundleTraced(sys *drcom.System, tr *tracer, name string, res map[string]string) (*osgi.Bundle, error) {
	paths := sortedKeys(res)
	m := manifest.New(name, manifest.MustParseVersion("1.0.0"))
	var descs []*descriptor.Component
	var err error
	for _, p := range paths {
		var d *descriptor.Component
		tr.do("descriptor.parse", func() {
			if err = descriptor.Sniff(res[p]); err == nil {
				d, err = descriptor.Parse(res[p])
			}
		})
		if err != nil {
			return nil, err
		}
		m.DRComComponents = append(m.DRComComponents, p)
		descs = append(descs, d)
	}
	tr.do("plan.compile", func() { _, err = sys.DRCR().CompilePlan(descs) })
	if err != nil {
		return nil, err
	}
	var b *osgi.Bundle
	tr.do("osgi.install", func() {
		b, err = sys.Framework().Install(osgi.Definition{Manifest: m, Resources: res})
	})
	if err != nil {
		return nil, err
	}
	tr.do("osgi.start", func() { err = b.Start() })
	return b, err
}

func (n *node) close() {
	if n.guard != nil {
		n.guard.Stop()
	}
	if n.sys != nil {
		n.sys.Close()
	}
}

// run advances one slice and samples availability.
func (n *node) run(tr *tracer, d time.Duration) error {
	var err error
	tr.do("rtos.run", func() { err = n.sys.Run(d) })
	n.heals.poll()
	n.activeSum += float64(n.tr.activeNames) / float64(len(n.in.descs))
	n.activeN++
	return err
}

// isWrite tells writes from reads for every verb a script can hold.
func isWrite(verb string) bool {
	switch verb {
	case "component", "components", "global_view", "why", "snapshot", "converged":
		return false
	}
	return true
}

// do issues one op through the client. Traced calls span the layer each
// public function belongs to.
func (n *node) do(c *client, o op) {
	tr, sys, t := c.tr, n.sys, o.Target
	var hl *heal
	switch o.Verb {
	case "resume":
		hl = n.heals.begin(0, t, false)
	case "promote", "restore", "enable", "deploy":
		hl = n.heals.begin(0, t, true)
	}
	var err error
	call := func(name string, f func() error) {
		tr.do(name, func() { err = f() })
	}
	f := func() error {
		switch o.Verb {
		case "suspend":
			call("core.suspend", func() error { return sys.Suspend(t) })
		case "resume":
			call("core.resume", func() error { return sys.Resume(t) })
		case "downgrade":
			call("core.downgrade", func() error { return sys.Downgrade(t, "adaptation manager") })
		case "promote":
			call("core.promote", func() error { return sys.AllowPromotion(t) })
		case "disable":
			call("core.disable", func() error { return sys.Disable(t) })
		case "enable":
			call("core.enable", func() error { return sys.Enable(t) })
		case "remove":
			call("core.remove", func() error { return sys.Remove(t) })
		case "deploy":
			if tr == nil {
				err = sys.DeployXML(n.in.srcs[t])
				break
			}
			var d *descriptor.Component
			call("descriptor.parse", func() (e error) { d, e = descriptor.Parse(n.in.srcs[t]); return })
			if err == nil {
				call("core.deploy", func() error { return sys.DRCR().Deploy(d) })
			}
		case "revoke":
			call("core.revoke", func() error { return sys.DRCR().RevokeBudget(t, "adaptation manager") })
		case "restore":
			call("core.restore", func() error { return sys.DRCR().RestoreBudget(t) })
		case "bundle_stop":
			call("osgi.bundle_stop", func() error { return n.bundles[t].Stop() })
		case "bundle_start":
			call("osgi.bundle_start", func() error { return n.bundles[t].Start() })
		case "component":
			call("core.component", func() error { return found(sys.Component(t)) })
		case "components":
			call("core.components", func() error { sys.Components(); return nil })
		case "global_view":
			call("core.global_view", func() error { sys.GlobalView(); return nil })
		case "why":
			call("core.why", func() error { sys.Observer().Why(t); return nil })
		case "snapshot":
			call("obs.snapshot", func() error { sys.Observer().Snapshot(); return nil })
		default:
			err = fmt.Errorf("unknown verb %q", o.Verb)
		}
		return err
	}
	if isWrite(o.Verb) {
		c.write(o.Verb, f)
	} else {
		c.read(o.Verb, f)
	}
	if hl != nil && err == nil {
		n.heals.commit(hl)
	}
}

func found(_ drcom.Info, ok bool) error {
	if !ok {
		return errMissing
	}
	return nil
}

var errMissing = fmt.Errorf("component not found")

func (n *node) tail(d time.Duration) error {
	if err := n.sys.Run(d); err != nil {
		return err
	}
	n.heals.poll()
	return nil
}

func (n *node) check() error { return checkNode(n) }

func (n *node) sim() simStats {
	n.tr.sweep()
	s := simStats{jitterUS: n.tr.jitterUS(), heals: n.heals.done, healsExpired: n.heals.expired + len(n.heals.pending)}
	s.jobs, s.misses = n.tr.jobs()
	s.activeRatio = ratio(n.activeSum, float64(n.activeN))
	return s
}

func (n *node) counts() layerCounts {
	var c layerCounts
	addPlane(&c, n.sys.Observer().Snapshot())
	c.events = n.sys.Kernel().EventsFired()
	n.tr.sweep()
	c.jobs, c.misses = n.tr.jobs()
	return c
}

// addPlane adds one observability plane's counters.
func addPlane(c *layerCounts, s obs.Snapshot) {
	c.drains += s.Resolve.Drains
	c.rounds += s.Resolve.Rounds
	if s.Resolve.MaxWorklistDepth > c.depthMax {
		c.depthMax = s.Resolve.MaxWorklistDepth
	}
	c.transitions += s.Lifecycle.Transitions
	c.activations += s.Lifecycle.Activations
	c.deactivated += s.Lifecycle.Deactivations
	c.denials += s.Lifecycle.Denials
	c.spans += s.SpansEmitted
	c.compiles += s.Plan.Compiles
	c.cacheHits += s.Plan.CacheHits
	c.applies += s.Plan.Applies
	c.fallbk += s.Plan.Fallbacks
	c.violations += s.Contract.Violations
	c.revocations += s.Contract.Revocations
	c.restores += s.Contract.Restores
	c.quarantines += s.Contract.Quarantines
	c.downgrades += s.Degrade.Downgrades
	c.upgrades += s.Degrade.Upgrades
	c.migrations += s.Cluster.Migrations
	c.placements += s.Cluster.Placements
	c.nodeLosses += s.Cluster.NodeLosses
}
