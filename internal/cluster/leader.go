package cluster

// Failure detection, bully-lite leader election, and the leader's
// duties: cluster-wide admission (placement), budget revocation routing,
// degradation-driven migration, node-loss re-placement, and post-heal
// reconciliation. All of it runs at barriers from each node's local
// knowledge (heartbeats heard, reports received), so two leaders on the
// two sides of a partition each act on their own island and the digest
// stays deterministic.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/descriptor"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/sim"
)

// detectFailures refreshes every node's reachability set from heartbeat
// ages and re-derives its leader belief. A peer flipping to unreachable
// drops its remote provisions here (the failure detector stands in for
// the unprovision message that cannot arrive); a peer flipping back
// triggers re-advertisement of this node's exports to it.
func (c *Cluster) detectFailures(b sim.Time) {
	loss := sim.Duration(c.cfg.NodeLossAfter)
	for _, n := range c.nodes {
		for _, peer := range c.nodes {
			if peer.id == n.id {
				continue
			}
			was := n.reachable[peer.id]
			now := b.Sub(n.lastHB[peer.id]) <= loss
			if was == now {
				continue
			}
			n.reachable[peer.id] = now
			if !now {
				c.dropProvisionsFrom(b, n, peer.id)
				if n.leader == n.id {
					c.onNodeLoss(b, n, peer.id)
				}
			} else {
				c.reprovisionTo(b, n, peer.id)
			}
		}
		leader := n.id
		for id := 0; id < n.id; id++ {
			if n.reachable[id] {
				leader = id
				break
			}
		}
		n.leader = leader
	}
}

// dropProvisionsFrom withdraws every remote provision originating at a
// lost peer, so consumers cascade to UNSATISFIED instead of reading a
// frozen replica forever.
func (c *Cluster) dropProvisionsFrom(b sim.Time, n *Node, peer int) {
	suffix := "@" + c.nodeName(peer)
	keys := make([]expKey, 0)
	for key := range n.installed {
		if _, origin, ok := cutKey(key); ok && len(origin) > len(suffix) && origin[len(origin)-len(suffix):] == suffix {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		c.uninstallProvision(b, n, key, c.nodeName(peer), 0)
	}
}

func cutKey(key expKey) (topic, origin string, ok bool) {
	s := string(key)
	for i := 0; i < len(s); i++ {
		if s[i] == '|' {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

// onNodeLoss is the leader's reaction to losing a member: every
// cluster-managed component placed there is re-placed onto a reachable
// node with headroom. The lost node may well still be running its copy
// on the far side of a partition — the heal-time reconciliation removes
// whichever copy the catalog no longer names.
func (c *Cluster) onNodeLoss(b sim.Time, leader *Node, lost int) {
	var stranded []string
	for _, name := range c.sortedPlacementNames() {
		if c.placements[name].node == lost {
			stranded = append(stranded, name)
		}
	}
	span := c.plane.NodeLoss(b, c.nodeName(lost), int64(len(stranded)),
		fmt.Sprintf("no heartbeat for %v", c.cfg.NodeLossAfter), 0)
	delete(leader.reports, lost)
	// Pick a target for every evacuee first, then ship per target: a
	// batch of two or more rides one compiled composition plan instead
	// of N migrate-add messages.
	type evacuation struct {
		names  []string
		causes []obs.SpanID
	}
	batches := map[int]*evacuation{}
	var targets []int
	for _, name := range stranded {
		pl := c.placements[name]
		target, ok := c.pickNode(leader, pl.desc, lost)
		if !ok {
			continue
		}
		pl.node = target
		c.cooldown[name] = b
		c.migStart[name] = b
		cause := c.plane.Place(b, name, c.nodeName(target), "re-placed after node loss", span)
		ev := batches[target]
		if ev == nil {
			ev = &evacuation{}
			batches[target] = ev
			targets = append(targets, target)
		}
		ev.names = append(ev.names, name)
		ev.causes = append(ev.causes, cause)
	}
	for _, target := range targets {
		ev := batches[target]
		if len(ev.names) == 1 {
			// A lone evacuee takes the classic per-component path.
			c.placeOn(b, leader, target, ev.names[0], ev.causes[0])
			continue
		}
		c.planOn(b, leader, target, ev.names, span)
	}
}

// planOn evacuates a batch of components as one compiled composition
// plan: the leader compiles the batch against its own view — warming
// the cluster-shared plan cache — and sends a single migrate-plan
// control message naming the batch. The receiver re-reads the
// descriptors from the shared catalog and deploys them in one pass,
// hitting the cached plan when its view matches the leader's. A batch
// that fails to compile (a typed port conflict between evacuees)
// degrades to per-component migrate-add, i.e. the event path.
func (c *Cluster) planOn(b sim.Time, leader *Node, target int, names []string, cause obs.SpanID) {
	descs := make([]*descriptor.Component, 0, len(names))
	for _, name := range names {
		if pl := c.placements[name]; pl != nil {
			descs = append(descs, pl.desc)
		}
	}
	if _, err := leader.drcr.CompilePlan(descs); err != nil {
		for _, name := range names {
			c.placeOn(b, leader, target, name, cause)
		}
		return
	}
	if target == leader.id {
		todo := descs[:0]
		for _, d := range descs {
			if _, deployed := leader.drcr.Component(d.Name); !deployed {
				todo = append(todo, d)
			}
		}
		leader.drcr.DeployAll(todo)
		return
	}
	batch := strings.Join(names, ",")
	span := c.plane.Send(b, batch, leader.Name(), c.nodeName(target), "migrate-plan", cause)
	c.net.Send(b, net.Message{
		Src: leader.id, Dst: target, Kind: net.Control,
		Topic: batch, Note: "migrate-plan", Cause: uint64(span),
	})
}

// pickNode chooses the reachable node with the most spare budget for a
// contract, from the leader's (possibly stale) reports; ties break to
// the lowest id. Nodes without a report yet count as empty. The excluded
// node (the one being evacuated) never wins.
func (c *Cluster) pickNode(leader *Node, desc *descriptor.Component, exclude int) (int, bool) {
	best, bestLoad := -1, 0.0
	for _, peer := range c.nodes {
		if peer.id == exclude || !leader.reachable[peer.id] && peer.id != leader.id {
			continue
		}
		load := 0.0
		if r := leader.reports[peer.id]; r != nil {
			load = r.load
		}
		if load+desc.CPUUsage > float64(c.cfg.NumCPUs) {
			continue
		}
		if best == -1 || load < bestLoad {
			best, bestLoad = peer.id, load
		}
	}
	return best, best >= 0
}

// placeOn deploys a catalog component on target: directly when the
// leader is the target, otherwise with a migrate-add control message
// that rides the network (and its latency and partitions).
func (c *Cluster) placeOn(b sim.Time, leader *Node, target int, name string, cause obs.SpanID) {
	if target == leader.id {
		if pl := c.placements[name]; pl != nil {
			if _, deployed := leader.drcr.Component(name); !deployed {
				_ = leader.drcr.Deploy(pl.desc)
			}
		}
		return
	}
	span := c.plane.Send(b, name, leader.Name(), c.nodeName(target), "migrate-add", cause)
	c.net.Send(b, net.Message{
		Src: leader.id, Dst: target, Kind: net.Control,
		Topic: name, Note: "migrate-add", Cause: uint64(span),
	})
}

// removeFrom mirrors placeOn for evacuations.
func (c *Cluster) removeFrom(b sim.Time, leader *Node, target int, name string, cause obs.SpanID) {
	if target == leader.id {
		_ = leader.drcr.Remove(name)
		return
	}
	span := c.plane.Send(b, name, leader.Name(), c.nodeName(target), "migrate-rm", cause)
	c.net.Send(b, net.Message{
		Src: leader.id, Dst: target, Kind: net.Control,
		Topic: name, Note: "migrate-rm", Cause: uint64(span),
	})
}

// leaderDuties runs once per barrier on every node that believes it
// leads: refresh its own report entry, reconcile stale copies the
// catalog no longer names, and migrate components stuck below their
// full contract toward nodes with spare budget.
func (c *Cluster) leaderDuties(b sim.Time, leader *Node) {
	leader.reports[leader.id] = leader.localReport()

	// Reconciliation: a report naming a component whose catalog entry
	// points elsewhere is a stale duplicate (typically a partition-era
	// re-placement); remove the copy the catalog disowned. Only acted on
	// when this leader can reach the catalog node AND holds a report
	// confirming the authoritative copy runs there — a minority-side
	// leader must not trust catalog entries written by the far side of a
	// partition it cannot see.
	ids := make([]int, 0, len(leader.reports))
	for id := range leader.reports {
		if id == leader.id || leader.reachable[id] {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		for _, name := range leader.reports[id].names {
			pl := c.placements[name]
			if pl == nil || pl.node == id || !c.cooldownOver(b, name) {
				continue
			}
			if pl.node != leader.id && !leader.reachable[pl.node] {
				continue
			}
			if !c.confirmedOn(leader, pl.node, name) {
				continue
			}
			c.cooldown[name] = b
			// Split-brain guard trip: a stale partition-era duplicate is
			// being reconciled away — freeze the flight recorder around it.
			c.plane.TriggerFlight("split-brain-"+name, b)
			span := c.plane.Migrate(b, name, c.nodeName(id), c.nodeName(pl.node),
				"reconcile: catalog places it on "+c.nodeName(pl.node), 0)
			c.removeFrom(b, leader, id, name, span)
		}
	}

	// Degradation-driven migration: the ladder position is the placement
	// signal — a component admitted in mode > 0 wants a node where its
	// full contract fits.
	for _, id := range ids {
		r := leader.reports[id]
		for _, name := range r.names {
			mode := r.comps[name]
			pl := c.placements[name]
			if mode == 0 || pl == nil || pl.node != id || !c.cooldownOver(b, name) {
				continue
			}
			target, ok := c.pickNode(leader, pl.desc, id)
			if !ok {
				continue
			}
			tl := 0.0
			if tr := leader.reports[target]; tr != nil {
				tl = tr.load
			}
			// Only move when the destination genuinely has more headroom
			// than the loaded source; otherwise the ladder stays put.
			if tl+pl.desc.CPUUsage >= r.load {
				continue
			}
			pl.node = target
			c.cooldown[name] = b
			c.migStart[name] = b
			span := c.plane.Migrate(b, name, c.nodeName(id), c.nodeName(target),
				fmt.Sprintf("degraded to mode %d; spare budget on %s", mode, c.nodeName(target)), 0)
			c.removeFrom(b, leader, id, name, span)
			c.placeOn(b, leader, target, name, span)
		}
	}
}

// confirmedOn reports whether the leader's freshest report from a node
// lists the component as admitted there.
func (c *Cluster) confirmedOn(leader *Node, node int, name string) bool {
	if r := leader.reports[node]; r != nil {
		_, ok := r.comps[name]
		return ok
	}
	return false
}

func (c *Cluster) cooldownOver(b sim.Time, name string) bool {
	last, ok := c.cooldown[name]
	return !ok || b.Sub(last) >= sim.Duration(c.cfg.MigrateCooldown)
}

// Deploy admits a component cluster-wide: the current leader (as seen
// by node 0) places it on the reachable node with the most spare
// budget, per its aggregated global view.
func (c *Cluster) Deploy(desc *descriptor.Component) error {
	leader := c.nodes[c.nodes[0].leader]
	target, ok := c.pickNode(leader, desc, -1)
	if !ok {
		return fmt.Errorf("cluster: no node has %0.2f spare budget for %s", desc.CPUUsage, desc.Name)
	}
	return c.DeployOn(target, desc)
}

// DeployOn pins a component to an explicit node and records it in the
// placement catalog.
func (c *Cluster) DeployOn(node int, desc *descriptor.Component) error {
	if node < 0 || node >= len(c.nodes) {
		return fmt.Errorf("cluster: no node %d", node)
	}
	if _, exists := c.placements[desc.Name]; exists {
		return fmt.Errorf("cluster: %s already placed", desc.Name)
	}
	if err := c.nodes[node].drcr.Deploy(desc); err != nil {
		return err
	}
	c.placements[desc.Name] = &placement{desc: desc, node: node}
	c.placeGen++
	c.plane.Place(c.now, desc.Name, c.nodeName(node), "deployed", 0)
	return nil
}

// DeployXML parses one descriptor and deploys it cluster-wide.
func (c *Cluster) DeployXML(src string) error {
	desc, err := descriptor.Parse(src)
	if err != nil {
		return err
	}
	return c.Deploy(desc)
}

// DeployXMLOn parses one descriptor and pins it to a node.
func (c *Cluster) DeployXMLOn(node int, src string) error {
	desc, err := descriptor.Parse(src)
	if err != nil {
		return err
	}
	return c.DeployOn(node, desc)
}

// Remove withdraws a component from the cluster and its catalog.
func (c *Cluster) Remove(name string) error {
	pl, ok := c.placements[name]
	if !ok {
		return fmt.Errorf("cluster: %s is not placed", name)
	}
	delete(c.placements, name)
	c.placeGen++
	return c.nodes[pl.node].drcr.Remove(name)
}

// Migrate moves a component to an explicit node (the console's manual
// override): remove at the source, deploy at the destination, catalog
// updated, traced on the cluster plane.
func (c *Cluster) Migrate(name string, dst int) error {
	pl, ok := c.placements[name]
	if !ok {
		return fmt.Errorf("cluster: %s is not placed", name)
	}
	if dst < 0 || dst >= len(c.nodes) {
		return fmt.Errorf("cluster: no node %d", dst)
	}
	if dst == pl.node {
		return nil
	}
	src := pl.node
	if err := c.nodes[src].drcr.Remove(name); err != nil {
		return err
	}
	if err := c.nodes[dst].drcr.Deploy(pl.desc); err != nil {
		return err
	}
	pl.node = dst
	c.cooldown[name] = c.now
	c.plane.Migrate(c.now, name, c.nodeName(src), c.nodeName(dst), "manual migration", 0)
	return nil
}

// RevokeBudget routes a cluster-wide budget revocation: the leader (as
// node 0 sees it) sends the revoke over the network to wherever the
// component is placed, so it arrives with real latency — or not at all
// while a partition separates leader and component.
func (c *Cluster) RevokeBudget(name, reason string) error {
	pl, ok := c.placements[name]
	if !ok {
		return fmt.Errorf("cluster: %s is not placed", name)
	}
	leader := c.nodes[c.nodes[0].leader]
	if pl.node == leader.id {
		return leader.drcr.RevokeBudget(name, reason)
	}
	span := c.plane.Send(c.now, name, leader.Name(), c.nodeName(pl.node), "revoke: "+reason, 0)
	// The reason rides the wire: a probabilistic admission verdict (or
	// any other revocation cause) lands verbatim in the destination
	// node's revoke span instead of a generic "cluster revocation".
	c.net.Send(c.now, net.Message{
		Src: leader.id, Dst: pl.node, Kind: net.Control,
		Topic: name, Note: "revoke: " + reason, Cause: uint64(span),
	})
	return nil
}

// RestoreBudget routes the matching restore the same way.
func (c *Cluster) RestoreBudget(name string) error {
	pl, ok := c.placements[name]
	if !ok {
		return fmt.Errorf("cluster: %s is not placed", name)
	}
	leader := c.nodes[c.nodes[0].leader]
	if pl.node == leader.id {
		return leader.drcr.RestoreBudget(name)
	}
	span := c.plane.Send(c.now, name, leader.Name(), c.nodeName(pl.node), "restore", 0)
	c.net.Send(c.now, net.Message{
		Src: leader.id, Dst: pl.node, Kind: net.Control,
		Topic: name, Note: "restore", Cause: uint64(span),
	})
	return nil
}

// TriggerRemote requests one aperiodic release of a task on another
// node; the request rides the network as a Trigger message and lands in
// the destination kernel's TriggerAsync (or its dropped-trigger ledger
// when a partition or loss eats it). Safe from task bodies.
func (c *Cluster) TriggerRemote(src, dst int, task string) {
	if src < 0 || src >= len(c.nodes) || dst < 0 || dst >= len(c.nodes) {
		return
	}
	c.net.Send(c.nodes[src].kernel.Now(), net.Message{
		Src: src, Dst: dst, Kind: net.Trigger, Topic: task,
	})
}

// NodeView is one node's row in the cluster's global view.
type NodeView struct {
	ID     int
	Leader int
	// Reachable lists peers this node currently hears heartbeats from.
	Reachable []int
	// Load/Admitted/Comps come from the leader's report for this node
	// (zero when the leader holds no report — e.g. across a partition).
	Load     float64
	Admitted int
	// Comps maps component → admitted mode per the freshest report. It
	// is shared with the cluster's report table: treat it as read-only.
	Comps map[string]int
}

// ClusterView is the aggregated global view as one leader sees it.
type ClusterView struct {
	At     sim.Time
	Leader int
	Nodes  []NodeView
	// Placements is the catalog: component → intended node.
	Placements map[string]int
}

// GlobalView aggregates the cluster state from the perspective of the
// leader node 0 currently follows. After a heal it converges: every
// node agrees on the leader and the leader holds a fresh report per
// node.
func (c *Cluster) GlobalView() ClusterView {
	leader := c.nodes[c.nodes[0].leader]
	v := ClusterView{At: c.now, Leader: leader.id, Placements: map[string]int{}}
	for name, pl := range c.placements {
		v.Placements[name] = pl.node
	}
	for _, n := range c.nodes {
		nv := NodeView{ID: n.id, Leader: n.leader}
		for id, ok := range n.reachable {
			if ok && id != n.id {
				nv.Reachable = append(nv.Reachable, id)
			}
		}
		if r := leader.reports[n.id]; r != nil {
			nv.Load = r.load
			nv.Admitted = r.admitted
			nv.Comps = r.comps
		}
		v.Nodes = append(v.Nodes, nv)
	}
	return v
}

// Converged reports whether every node agrees on one leader, every pair
// is mutually reachable, and that leader holds a report for every node
// — the post-heal stability criterion the campaign pins.
func (c *Cluster) Converged() bool {
	leader := c.nodes[0].leader
	for _, n := range c.nodes {
		if n.leader != leader {
			return false
		}
		for id, ok := range n.reachable {
			if !ok && id != n.id {
				return false
			}
		}
	}
	for _, n := range c.nodes {
		if c.nodes[leader].reports[n.id] == nil {
			return false
		}
	}
	return true
}

// Digest folds every node's lifecycle event log and observability
// stream, the cluster control plane's stream, and the network ledger
// into one hex SHA-256. Two runs with the same Config must agree byte
// for byte, for any per-node Shards setting and Parallel on or off.
func (c *Cluster) Digest() string {
	h := sha256.New()
	for _, n := range c.nodes {
		fmt.Fprintf(h, "node %d\n", n.id)
		for _, ev := range n.drcr.Events() {
			fmt.Fprintf(h, "%d|%s|%v|%v|%s\n", ev.At, ev.Component, ev.From, ev.To, ev.Reason)
		}
		fmt.Fprintf(h, "obs %s\n", n.plane.StreamDigest())
	}
	fmt.Fprintf(h, "plane %s\n", c.plane.StreamDigest())
	for _, name := range c.sortedPlacementNames() {
		fmt.Fprintf(h, "place %s=%d\n", name, c.placements[name].node)
	}
	s := c.net.Stats()
	fmt.Fprintf(h, "net %d %d %d %d %d %d %d\n",
		s.Sent, s.Duplicated, s.Delivered, s.Dropped, s.PartitionDrops, s.LossDrops, s.Inflight)
	return hex.EncodeToString(h.Sum(nil))
}
