package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

// simStats are the simulated-clock metrics: exact for a given seed.
type simStats struct {
	jobs, misses uint64
	jitterUS     float64
	activeRatio  float64
	heals        []float64 // simulated ms from each heal to convergence
	healsExpired int       // heals that did not converge in time
}

// layerCounts are counters read from the program's public read APIs.
// The timed phase reports the difference of two readings.
type layerCounts struct {
	drains, rounds                        uint64
	depthMax                              int64
	transitions, activations, deactivated uint64
	denials                               uint64
	spans                                 uint64
	compiles, cacheHits, applies, fallbk  uint64
	violations, revocations, restores     uint64
	quarantines, downgrades, upgrades     uint64
	events, jobs, misses                  uint64
	migrations, placements, nodeLosses    uint64
	sent, delivered, dropped, duplicated  uint64
	nodes                                 int
	steps                                 uint64 // cluster barrier windows run
}

// unit of every metric name, end-to-end and per-layer. Names with the
// per-verb pattern are added by init.
var units = map[string]string{
	"setup_s": "s", "sim_rate": "sim_s/s",
	"op_p50_ms": "ms", "op_p99_ms": "ms", "read_p50_ms": "ms", "read_p99_ms": "ms",
	"mem_mb": "MiB", "err_ratio": "ratio", "miss_ratio": "ratio",
	"rt_jitter_us": "us", "active_ratio": "ratio", "heal_converge_ms": "ms",

	"descriptor.parses": "count", "descriptor.parse_us": "us",
	"plan.compile_ms": "ms", "plan.compiles": "count", "plan.cache_hits": "count",
	"plan.hit_ratio": "ratio", "plan.applies": "count", "plan.fallbacks": "count",
	"osgi.install_start_ms": "ms", "osgi.bundle_restart_p50_ms": "ms",
	"core.write_busy_s": "s", "core.writes": "count",
	"core.resolve_drains": "count", "core.resolve_rounds": "count", "core.rounds_per_drain": "ratio",
	"core.worklist_depth_max": "count", "core.transitions": "count",
	"core.activations": "count", "core.deactivations": "count",
	"core.read_busy_s": "s", "core.component_p50_us": "us", "core.components_p50_us": "us",
	"core.global_view_p50_us": "us", "core.why_p50_us": "us",
	"policy.denials": "count", "policy.deny_ratio": "ratio",
	"obs.spans": "count", "obs.spans_per_op": "ratio",
	"rtos.run_busy_s": "s", "rtos.events": "count", "rtos.ns_per_event": "ns",
	"rtos.jobs": "count", "rtos.misses": "count",
	"contract.violations": "count", "contract.revocations": "count", "contract.restores": "count",
	"contract.quarantines": "count", "contract.downgrades": "count", "contract.upgrades": "count",
	"cluster.run_busy_s": "s", "cluster.ns_per_step": "ns", "cluster.write_busy_s": "s",
	"cluster.read_busy_s": "s", "cluster.migrations": "count", "cluster.placements": "count",
	"cluster.node_losses": "count", "cluster.misplaced": "count",
	"net.sent": "count", "net.delivered": "count", "net.dropped": "count", "net.duplicated": "count",
	"net.deliver_ratio": "ratio", "net.msgs_per_node_sim_s": "1/s",
	"runtime.alloc_mb": "MiB", "runtime.gc_cycles": "count",
	"bench.unattributed_ratio": "ratio", "bench.trace_overhead_ratio": "ratio",
}

// coreVerbs are the ten DRCR write verbs with a per-verb latency.
var coreVerbs = []string{"deploy", "remove", "enable", "disable", "revoke", "restore",
	"downgrade", "promote", "suspend", "resume"}

func init() {
	for _, v := range coreVerbs {
		units["core."+v+"_p50_us"] = "us"
	}
}

// endToEndNames lists the metrics an untraced run reports.
var endToEndNames = []string{"setup_s", "sim_rate", "op_p50_ms", "op_p99_ms", "read_p50_ms",
	"read_p99_ms", "mem_mb", "err_ratio", "miss_ratio", "rt_jitter_us", "active_ratio", "heal_converge_ms"}

func fill(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(vals))
	for k, v := range vals {
		out[k] = metric{Value: v, Unit: units[k]}
	}
	return out
}

// endToEnd assembles the untraced run's metrics. Percentiles refuse to
// report a tail with fewer than minBeyond samples beyond it.
func endToEnd(setup float64, m timed, s simStats) (map[string]metric, error) {
	v := map[string]float64{"setup_s": setup}
	v["sim_rate"] = m.sim.Seconds() / m.wall.Seconds()
	var errs []string
	pct := func(key, what string, xs []float64, q float64) {
		x, err := percentile(what, xs, q)
		if err != nil {
			errs = append(errs, err.Error())
		}
		v[key] = x / 1e6
	}
	pct("op_p50_ms", "writes", m.cl.writes, 0.5)
	pct("op_p99_ms", "writes", m.cl.writes, 0.99)
	pct("read_p50_ms", "reads", m.cl.reads, 0.5)
	pct("read_p99_ms", "reads", m.cl.reads, 0.99)
	if len(s.heals) == 0 {
		errs = append(errs, "heal_converge_ms: no heal converged")
	}
	v["mem_mb"] = float64(m.mem.HeapAlloc) / (1 << 20)
	v["err_ratio"] = ratio(float64(m.cl.failed), float64(m.cl.attempted))
	v["miss_ratio"] = ratio(float64(s.misses), float64(s.jobs))
	v["rt_jitter_us"] = s.jitterUS
	v["active_ratio"] = s.activeRatio
	v["heal_converge_ms"] = median(s.heals)
	if len(errs) > 0 {
		return nil, fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	fmt.Fprintf(os.Stderr, "samples: writes %d, reads %d, heals %d (%d unconverged), jobs %d; timed %.2fs host, %.3fs sim\n",
		len(m.cl.writes), len(m.cl.reads), len(s.heals), s.healsExpired, s.jobs, m.wall.Seconds(), m.sim.Seconds())
	return fill(v), nil
}

// perLayer assembles the traced run's split: busy time per layer from
// span self times inside the timed phase, counts from the program's read
// APIs, and the set-up calls from the spans under bench.setup.
func perLayer(tr *tracer, m timed, plain timed) map[string]metric {
	v := map[string]float64{}
	for n := range units {
		v[n] = 0
	}
	for _, n := range endToEndNames {
		delete(v, n)
	}
	sp := window(tr.spans, m.from, m.to)
	self := selfTimesIn(sp)
	setup := window(tr.spans, 0, m.from)
	us := func(xs []float64) float64 { return median(xs) / 1e3 }
	sum := func(xs []float64) float64 {
		var t float64
		for _, x := range xs {
			t += x
		}
		return t
	}

	parse := durations(setup, "descriptor.parse")
	v["descriptor.parses"] = float64(len(parse))
	v["descriptor.parse_us"] = us(parse)
	v["plan.compile_ms"] = sum(durations(setup, "plan.compile")) / 1e6
	v["osgi.install_start_ms"] = (sum(durations(setup, "osgi.install")) + sum(durations(setup, "osgi.start"))) / 1e6
	restarts := append(durations(sp, "osgi.bundle_stop"), durations(sp, "osgi.bundle_start")...)
	v["osgi.bundle_restart_p50_ms"] = median(restarts) / 1e6

	d := diff(m.before, m.after)
	v["plan.compiles"] = float64(m.after.compiles)
	v["plan.cache_hits"] = float64(m.after.cacheHits)
	v["plan.hit_ratio"] = ratio(float64(m.after.cacheHits), float64(m.after.cacheHits+m.after.compiles))
	v["plan.applies"] = float64(m.after.applies)
	v["plan.fallbacks"] = float64(m.after.fallbk)

	var writes int
	for _, verb := range coreVerbs {
		xs := durations(sp, "core."+verb)
		writes += len(xs)
		v["core."+verb+"_p50_us"] = us(xs)
	}
	v["core.writes"] = float64(writes)
	v["core.write_busy_s"] = busyOf(sp, self, func(n string) bool { return isCoreWrite(n) })
	v["core.read_busy_s"] = busyOf(sp, self, func(n string) bool {
		return layerOf(n) == "core" && !isCoreWrite(n)
	})
	for _, r := range []string{"component", "components", "global_view", "why"} {
		v["core."+r+"_p50_us"] = us(durations(sp, "core."+r))
	}
	v["core.resolve_drains"] = float64(d.drains)
	v["core.resolve_rounds"] = float64(d.rounds)
	v["core.rounds_per_drain"] = ratio(float64(d.rounds), float64(d.drains))
	v["core.worklist_depth_max"] = float64(m.after.depthMax)
	v["core.transitions"] = float64(d.transitions)
	v["core.activations"] = float64(d.activations)
	v["core.deactivations"] = float64(d.deactivated)
	v["policy.denials"] = float64(d.denials)
	v["policy.deny_ratio"] = ratio(float64(d.denials), float64(d.denials+d.activations))
	v["obs.spans"] = float64(d.spans)
	v["obs.spans_per_op"] = ratio(float64(d.spans), float64(len(m.cl.writes)))

	v["rtos.run_busy_s"] = busyOf(sp, self, func(n string) bool { return n == "rtos.run" })
	v["rtos.events"] = float64(d.events)
	v["rtos.ns_per_event"] = ratio(v["rtos.run_busy_s"]*1e9, float64(d.events))
	v["rtos.jobs"] = float64(d.jobs)
	v["rtos.misses"] = float64(d.misses)

	v["contract.violations"] = float64(d.violations)
	v["contract.revocations"] = float64(d.revocations)
	v["contract.restores"] = float64(d.restores)
	v["contract.quarantines"] = float64(d.quarantines)
	v["contract.downgrades"] = float64(d.downgrades)
	v["contract.upgrades"] = float64(d.upgrades)

	v["cluster.run_busy_s"] = busyOf(sp, self, func(n string) bool { return n == "cluster.run" })
	v["cluster.ns_per_step"] = ratio(v["cluster.run_busy_s"]*1e9, float64(d.steps))
	v["cluster.write_busy_s"] = busyOf(sp, self, isClusterWrite)
	v["cluster.read_busy_s"] = busyOf(sp, self, func(n string) bool {
		return layerOf(n) == "cluster" && n != "cluster.run" && !isClusterWrite(n)
	})
	v["cluster.migrations"] = float64(d.migrations)
	v["cluster.placements"] = float64(d.placements)
	v["cluster.node_losses"] = float64(d.nodeLosses)
	v["cluster.misplaced"] = float64(m.misplaced)

	v["net.sent"] = float64(d.sent)
	v["net.delivered"] = float64(d.delivered)
	v["net.dropped"] = float64(d.dropped)
	v["net.duplicated"] = float64(d.duplicated)
	v["net.deliver_ratio"] = ratio(float64(d.delivered), float64(d.sent+d.duplicated))
	if m.after.nodes > 0 {
		v["net.msgs_per_node_sim_s"] = float64(d.sent) / float64(m.after.nodes) / m.sim.Seconds()
	}

	v["runtime.alloc_mb"] = float64(m.mem.TotalAlloc-m.memBefore.TotalAlloc) / (1 << 20)
	v["runtime.gc_cycles"] = float64(m.mem.NumGC - m.memBefore.NumGC)

	var rooted int64
	for _, s := range sp {
		if s.Parent < 0 || !inWindow(tr.spans[s.Parent], m.from, m.to) {
			rooted += s.End - s.Start
		}
	}
	wall := float64(m.to - m.from)
	v["bench.unattributed_ratio"] = ratio(wall-float64(rooted), wall)
	v["bench.trace_overhead_ratio"] = ratio(m.wall.Seconds(), plain.wall.Seconds())

	shares := layerShares(sp, self, wall)
	fmt.Fprintf(os.Stderr, "layer shares of timed host time (%.2fs):%s\n", wall/1e9, shares)
	return fill(v)
}

func inWindow(s span, from, to int64) bool { return s.Start >= from && s.End <= to }

// selfTimesIn computes self times inside a window whose parent indices
// still point into the full span list: it rebuilds them locally.
func selfTimesIn(sp []span) []int64 {
	self := make([]int64, len(sp))
	// Parents precede children, and the client nests calls strictly, so
	// a stack of open spans recovers each span's parent in the window.
	var open []int
	for i, s := range sp {
		for len(open) > 0 && sp[open[len(open)-1]].End <= s.Start {
			open = open[:len(open)-1]
		}
		self[i] += s.End - s.Start
		if len(open) > 0 {
			self[open[len(open)-1]] -= s.End - s.Start
		}
		open = append(open, i)
	}
	return self
}

func busyOf(sp []span, self []int64, match func(string) bool) float64 {
	var ns int64
	for i, s := range sp {
		if match(s.Name) {
			ns += self[i]
		}
	}
	return float64(ns) / 1e9
}

func isCoreWrite(name string) bool {
	for _, v := range coreVerbs {
		if name == "core."+v {
			return true
		}
	}
	return false
}

func isClusterWrite(name string) bool {
	switch name {
	case "cluster.deploy_on", "cluster.remove", "cluster.revoke", "cluster.restore":
		return true
	}
	return false
}

// layerShares renders each layer's self time as a share of the timed
// host time, largest first.
func layerShares(sp []span, self []int64, wall float64) string {
	by := map[string]int64{}
	for i, s := range sp {
		l := layerOf(s.Name)
		switch {
		case isCoreWrite(s.Name):
			l = "core(write)"
		case l == "core":
			l = "core(read)"
		}
		by[l] += self[i]
	}
	keys := sortedKeys(by)
	sort.SliceStable(keys, func(i, j int) bool { return by[keys[i]] > by[keys[j]] })
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s %.1f%%", k, 100*float64(by[k])/wall)
	}
	return b.String()
}

func diff(a, b layerCounts) layerCounts {
	return layerCounts{
		drains: b.drains - a.drains, rounds: b.rounds - a.rounds,
		transitions: b.transitions - a.transitions, activations: b.activations - a.activations,
		deactivated: b.deactivated - a.deactivated, denials: b.denials - a.denials,
		spans:    b.spans - a.spans,
		compiles: b.compiles - a.compiles, cacheHits: b.cacheHits - a.cacheHits,
		applies: b.applies - a.applies, fallbk: b.fallbk - a.fallbk,
		violations: b.violations - a.violations, revocations: b.revocations - a.revocations,
		restores: b.restores - a.restores, quarantines: b.quarantines - a.quarantines,
		downgrades: b.downgrades - a.downgrades, upgrades: b.upgrades - a.upgrades,
		events: b.events - a.events, jobs: b.jobs - a.jobs, misses: b.misses - a.misses,
		migrations: b.migrations - a.migrations, placements: b.placements - a.placements,
		nodeLosses: b.nodeLosses - a.nodeLosses,
		sent:       b.sent - a.sent, delivered: b.delivered - a.delivered,
		dropped: b.dropped - a.dropped, duplicated: b.duplicated - a.duplicated,
		nodes: b.nodes, steps: b.steps - a.steps,
	}
}
