package cluster

// Federated observability surface: the cluster's stitched Why-chains,
// the pinned stitched-trace digest, merged latency summaries, and
// flight-recorder access across node planes.

import (
	"sort"

	"repro/internal/obs"
)

// Planes returns the federation's plane registry: every node plane
// under its node name plus the cluster control plane under "cluster" —
// the map obs.StitchWhy/StitchDigest consume.
func (c *Cluster) Planes() map[string]*obs.Plane {
	planes := make(map[string]*obs.Plane, len(c.nodes)+1)
	planes["cluster"] = c.plane
	for _, n := range c.nodes {
		planes[n.Name()] = n.plane
	}
	return planes
}

// Why reconstructs the cross-node causal chain ending at a component's
// latest span, newest first. The walk starts on the component's catalog
// node (or, for names the catalog does not manage, the first node — in
// id order — whose plane knows the component, falling back to the
// cluster plane) and hops planes through the stitch table wherever a
// cause crossed the network.
func (c *Cluster) Why(component string) []obs.StitchedSpan {
	return obs.StitchWhy(c.Planes(), c.whereIs(component), component)
}

// WhyOn is Why pinned to an explicit plane ("n2", "cluster").
func (c *Cluster) WhyOn(node, component string) []obs.StitchedSpan {
	return obs.StitchWhy(c.Planes(), node, component)
}

// whereIs names the plane holding a component's latest span.
func (c *Cluster) whereIs(component string) string {
	if pl := c.placements[component]; pl != nil {
		if _, ok := c.nodes[pl.node].plane.Last(component); ok {
			return c.nodeName(pl.node)
		}
	}
	for _, n := range c.nodes {
		if _, ok := n.plane.Last(component); ok {
			return n.Name()
		}
	}
	return "cluster"
}

// StitchDigest folds the stitched Why-chains of every cluster-managed
// component — roots in catalog name order — into one hex SHA-256. Like
// Cluster.Digest it is byte-deterministic for a Config at any per-node
// Shards setting and Parallel on or off; unlike Digest it pins the
// *cross-node* causality the stitch table reconstructs, so a regression
// that breaks remote-parent links moves this digest even when every
// single-plane stream is intact.
func (c *Cluster) StitchDigest() string {
	planes := c.Planes()
	roots := make([]obs.StitchRoot, 0, len(c.placements))
	for _, name := range c.sortedPlacementNames() {
		roots = append(roots, obs.StitchRoot{Node: c.whereIs(name), Component: name})
	}
	return obs.StitchDigest(planes, roots)
}

// LatencyStats merges every plane's latency histograms — the cluster
// plane's migrate-e2e and revoke-propagation distributions plus each
// node's resolve/deploy/plan-apply wall distributions — into one
// summary in canonical kind order.
func (c *Cluster) LatencyStats() []obs.LatencyStat {
	planes := make([]*obs.Plane, 0, len(c.nodes)+1)
	planes = append(planes, c.plane)
	for _, n := range c.nodes {
		planes = append(planes, n.plane)
	}
	return obs.MergeLatencyStats(planes...)
}

// FlightDumps gathers every plane's retained flight-recorder dumps,
// names qualified as "node/name", in (node, capture) order.
func (c *Cluster) FlightDumps() []obs.FlightDump {
	var out []obs.FlightDump
	names := make([]string, 0, len(c.nodes)+1)
	names = append(names, "cluster")
	for _, n := range c.nodes {
		names = append(names, n.Name())
	}
	sort.Strings(names[1:]) // node names; "cluster" stays first
	planes := c.Planes()
	for _, pn := range names {
		for _, d := range planes[pn].FlightDumps() {
			d.Name = pn + "/" + d.Name
			out = append(out, d)
		}
	}
	return out
}
