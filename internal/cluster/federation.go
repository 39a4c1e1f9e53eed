package cluster

// Barrier-staged federation traffic: load reports, provision exchange,
// port-data replication, and the delivery dispatcher. Everything here
// runs inside atBarrier, single-threaded, in node-id order.

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/descriptor"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/rtos/ipc"
	"repro/internal/sim"
)

// viewLoad sums a view's admitted budget.
func viewLoad(view policy.View) float64 {
	load := 0.0
	for _, l := range view.CPULoad {
		load += l
	}
	if view.CPULoad == nil {
		for _, ct := range view.Admitted {
			load += ct.CPUUsage
		}
	}
	return load
}

// localReport returns the node's own load summary. Everything in it is
// a function of the DRCR's admission view, whose snapshot changes only
// when the view epoch moves, so the report is rebuilt only then; in
// between every call returns the same read-only report.
func (n *Node) localReport() *report {
	view := n.drcr.GlobalView()
	if r := n.self; r != nil && r.epoch == view.Epoch && r.load == viewLoad(view) {
		return r
	}
	view, modes := n.drcr.AdmittedModes()
	r := &report{
		epoch:    view.Epoch,
		load:     viewLoad(view),
		admitted: len(view.Admitted),
		comps:    make(map[string]int, len(view.Admitted)),
		names:    make([]string, len(view.Admitted)),
	}
	var sb strings.Builder
	for i, ct := range view.Admitted {
		r.comps[ct.Name] = modes[i]
		r.names[i] = ct.Name
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(ct.Name)
		sb.WriteByte('=')
		sb.WriteString(strconv.Itoa(modes[i]))
	}
	r.note = sb.String()
	r.payload = []int64{int64(r.load * 1e6), int64(r.admitted)}
	n.self = r
	return r
}

// decodeReport reads a report message. The component table is reused
// from the sender's previous report when the note did not change.
func decodeReport(m net.Message, prev *report) *report {
	r := &report{note: m.Note}
	if len(m.Payload) >= 2 {
		r.load = float64(m.Payload[0]) / 1e6
		r.admitted = int(m.Payload[1])
	}
	if prev != nil && prev.note == m.Note {
		r.comps, r.names = prev.comps, prev.names
		return r
	}
	r.comps = map[string]int{}
	if m.Note != "" {
		for _, pair := range strings.Split(m.Note, ",") {
			if eq := strings.IndexByte(pair, '='); eq > 0 {
				mode, _ := strconv.Atoi(pair[eq+1:])
				r.comps[pair[:eq]] = mode
				r.names = append(r.names, pair[:eq])
			}
		}
	}
	return r
}

// stageReport refreshes the node's own summary and, when someone else
// leads, ships it to them; a leader's own entry never crosses the wire.
func (c *Cluster) stageReport(b sim.Time, n *Node) {
	r := n.localReport()
	if n.leader == n.id {
		n.reports[n.id] = r
		return
	}
	c.net.Send(b, net.Message{
		Src: n.id, Dst: n.leader, Kind: net.Report,
		Note: r.note, Payload: r.payload,
	})
}

// stageProvisions diffs the node's current export set (outports of
// admitted, cluster-managed components) against what peers were last
// told, and sends provision on/off messages for the delta. Messages
// carry the port shape, so the receiver can index and replicate without
// the descriptor. The export set is a function of the admitted set and
// of the catalog's key set alone, so while the view epoch and the
// placement generation both stand where the last diff saw them there is
// nothing to diff.
func (c *Cluster) stageProvisions(b sim.Time, n *Node) {
	view := n.drcr.GlobalView()
	if view.Epoch == n.expEpoch && c.placeGen == n.expGen {
		return
	}
	n.expEpoch, n.expGen = view.Epoch, c.placeGen
	current := c.exportSet(n, view)
	var added, removed []expKey
	for key := range current {
		if _, ok := n.exported[key]; !ok {
			added = append(added, key)
		}
	}
	for key := range n.exported {
		if _, ok := current[key]; !ok {
			removed = append(removed, key)
		}
	}
	sort.Slice(added, func(i, j int) bool { return added[i] < added[j] })
	sort.Slice(removed, func(i, j int) bool { return removed[i] < removed[j] })
	for _, key := range added {
		n.exported[key] = current[key]
		c.broadcastProvision(b, n, key, current[key], true)
	}
	for _, key := range removed {
		port := n.exported[key]
		delete(n.exported, key)
		c.broadcastProvision(b, n, key, port, false)
	}
	n.shmTopics = shmTopics(n.exported)
}

// exportSet is the set of provisions a node with the given admission
// view exports: every outport of its admitted, cluster-managed
// components.
func (c *Cluster) exportSet(n *Node, view policy.View) map[expKey]descriptor.Port {
	set := map[expKey]descriptor.Port{}
	for _, ct := range view.Admitted {
		pl := c.placements[ct.Name]
		if pl == nil {
			continue // not cluster-managed (node-local deployment)
		}
		origin := ct.Name + "@" + n.name
		for _, out := range pl.desc.OutPorts {
			set[expKey(out.Name+"|"+origin)] = out
		}
	}
	return set
}

// shmTopics lists the distinct SHM topics of an export set, sorted.
func shmTopics(exported map[expKey]descriptor.Port) []string {
	var names []string
	for key, port := range exported {
		if topic, _, ok := strings.Cut(string(key), "|"); ok && port.Interface == descriptor.SHM {
			names = append(names, topic)
		}
	}
	sort.Strings(names)
	return slices.Compact(names)
}

// reprovisionTo re-advertises every current export to one peer — used
// when a peer comes back from the dead, since it dropped this node's
// provisions on loss.
func (c *Cluster) reprovisionTo(b sim.Time, n *Node, peer int) {
	keys := make([]expKey, 0, len(n.exported))
	for key := range n.exported {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		c.sendProvision(b, n, peer, key, n.exported[key], true)
	}
}

func (c *Cluster) broadcastProvision(b sim.Time, n *Node, key expKey, port descriptor.Port, on bool) {
	for _, peer := range c.nodes {
		if peer.id != n.id {
			c.sendProvision(b, n, peer.id, key, port, on)
		}
	}
}

func (c *Cluster) sendProvision(b sim.Time, n *Node, dst int, key expKey, port descriptor.Port, on bool) {
	verb := "on"
	if !on {
		verb = "off"
	}
	_, origin, _ := strings.Cut(string(key), "|")
	span := c.plane.Send(b, origin, n.Name(), c.nodeName(dst), "provision "+verb+" "+port.Name, 0)
	note := verb + ":" + string(port.Interface)
	// Typed ports append their contract attributes; untyped ports keep
	// the legacy two-field note byte for byte. The datatype rides last
	// because its canonical form may itself contain colons.
	if port.Version != "" || port.DataType != "" {
		note += ":" + port.Version + ":" + port.DataType
	}
	c.net.Send(b, net.Message{
		Src: n.id, Dst: dst, Kind: net.Provision,
		Topic:   string(key),
		Note:    note,
		Payload: []int64{int64(port.Type), int64(port.Size)},
		Cause:   uint64(span),
	})
}

// stageData replicates changed SHM outport contents to every peer. Only
// topics this node exports are scanned (n.shmTopics); a generation check
// keeps quiet ports off the wire. Mailbox ports do not replicate (remote
// releases travel as Trigger messages instead).
func (c *Cluster) stageData(b sim.Time, n *Node) {
	for _, topic := range n.shmTopics {
		shm, err := n.kernel.IPC().SHM(topic)
		if err != nil {
			continue
		}
		gen := shm.Generation()
		if gen == n.lastGen[topic] {
			continue
		}
		n.lastGen[topic] = gen
		data := shm.ReadAll()
		for _, peer := range c.nodes {
			if peer.id != n.id {
				c.net.Send(b, net.Message{
					Src: n.id, Dst: peer.id, Kind: net.Data,
					Topic: topic, Payload: data,
				})
			}
		}
	}
}

// deliver applies one arrived message on its destination node.
func (c *Cluster) deliver(b sim.Time, m net.Message) {
	n := c.nodes[m.Dst]
	switch m.Kind {
	case net.Heartbeat:
		n.lastHB[m.Src] = b
	case net.Report:
		n.reports[m.Src] = decodeReport(m, n.reports[m.Src])
	case net.Provision:
		c.deliverProvision(b, n, m)
	case net.Data:
		c.deliverData(n, m)
	case net.Trigger:
		n.kernel.TriggerAsync(m.Topic)
	case net.Control:
		c.deliverControl(b, n, m)
	}
}

// deliverProvision installs or withdraws a remote provision, managing
// the SHM replica the remote topic's data lands in. Duplicated messages
// (the network may duplicate) are absorbed by the installed set.
func (c *Cluster) deliverProvision(b sim.Time, n *Node, m net.Message) {
	key := expKey(m.Topic)
	topic, origin, ok := strings.Cut(m.Topic, "|")
	parts := strings.SplitN(m.Note, ":", 4)
	if !ok || len(parts) < 2 || len(m.Payload) < 2 {
		return
	}
	verb, iface := parts[0], parts[1]
	port := descriptor.Port{
		Name:      topic,
		Interface: descriptor.PortInterface(iface),
		Type:      ipc.ElemType(m.Payload[0]),
		Size:      int(m.Payload[1]),
		Direction: descriptor.Out,
	}
	if len(parts) == 4 {
		port.Version, port.DataType = parts[2], parts[3]
	}
	switch verb {
	case "on":
		if _, dup := n.installed[key]; dup {
			return
		}
		n.installed[key] = port
		recv := c.plane.Recv(b, origin, c.nodeName(m.Src), n.Name(), "provision on "+topic, obs.SpanID(m.Cause))
		// Node-local effects of the arrival chain back to the cluster
		// Recv span through the stitch table (cross-node Why).
		n.plane.SetRemoteCause(obs.Ref{Node: "cluster", ID: recv})
		defer n.plane.ClearRemoteCause()
		if port.Interface == descriptor.SHM {
			if n.replicas[topic] == 0 {
				// Replica only if no local transport already carries the
				// topic (a local provider's SHM always wins).
				if _, err := n.kernel.IPC().SHM(topic); err != nil {
					if _, err := n.kernel.IPC().CreateSHM(topic, port.Type, port.Size); err == nil {
						n.replicas[topic] = 1
					}
				}
			} else {
				n.replicas[topic]++
			}
		}
		_ = n.drcr.AddRemoteProvider(port, origin)
	case "off":
		c.uninstallProvision(b, n, key, c.nodeName(m.Src), obs.SpanID(m.Cause))
	}
}

// uninstallProvision withdraws one installed remote provision and drops
// the SHM replica when its last provider goes.
func (c *Cluster) uninstallProvision(b sim.Time, n *Node, key expKey, fromNode string, cause obs.SpanID) {
	port, ok := n.installed[key]
	if !ok {
		return
	}
	delete(n.installed, key)
	topic, origin, _ := strings.Cut(string(key), "|")
	recv := c.plane.Recv(b, origin, fromNode, n.Name(), "provision off "+topic, cause)
	n.plane.SetRemoteCause(obs.Ref{Node: "cluster", ID: recv})
	defer n.plane.ClearRemoteCause()
	if port.Interface == descriptor.SHM && n.replicas[topic] > 0 {
		n.replicas[topic]--
		if n.replicas[topic] == 0 {
			delete(n.replicas, topic)
			_ = n.kernel.IPC().DeleteSHM(topic)
		}
	}
	_ = n.drcr.RemoveRemoteProvider(port, origin)
}

// deliverData lands replicated port data in the topic's replica. Nodes
// with a live local provider ignore it (local data wins).
func (c *Cluster) deliverData(n *Node, m net.Message) {
	if n.replicas[m.Topic] == 0 {
		return
	}
	shm, err := n.kernel.IPC().SHM(m.Topic)
	if err != nil {
		return
	}
	data := m.Payload
	if max := shm.Len(); len(data) > max {
		data = data[:max]
	}
	_ = shm.WriteAll(data)
}

// deliverControl executes a leader command on this node. The node-local
// effect runs under an ambient remote cause naming the cluster Recv
// span, so the destination plane's spans stitch back across the network
// hop to the leader's decision.
func (c *Cluster) deliverControl(b sim.Time, n *Node, m net.Message) {
	recv := c.plane.Recv(b, m.Topic, c.nodeName(m.Src), n.Name(), m.Note, obs.SpanID(m.Cause))
	n.plane.SetRemoteCause(obs.Ref{Node: "cluster", ID: recv})
	defer n.plane.ClearRemoteCause()
	verb, detail := m.Note, ""
	if i := strings.Index(m.Note, ": "); i >= 0 {
		verb, detail = m.Note[:i], m.Note[i+2:]
	}
	switch verb {
	case "revoke":
		// Propagation latency: leader send instant → applied here.
		c.plane.RecordLatency(obs.LatRevoke, int64(b.Sub(m.SentAt)))
		reason := "cluster revocation"
		if detail != "" {
			reason = "cluster revocation: " + detail
		}
		_ = n.drcr.RevokeBudget(m.Topic, reason)
	case "restore":
		_ = n.drcr.RestoreBudget(m.Topic)
	case "migrate-add":
		if pl := c.placements[m.Topic]; pl != nil {
			if _, deployed := n.drcr.Component(m.Topic); !deployed {
				_ = n.drcr.Deploy(pl.desc)
			}
		}
	case "migrate-plan":
		// A batched evacuation: the topic names the batch, the shared
		// catalog still holds the descriptors, and the shared plan cache
		// holds the plan the leader compiled before sending.
		var descs []*descriptor.Component
		for _, name := range strings.Split(m.Topic, ",") {
			pl := c.placements[name]
			if pl == nil {
				continue
			}
			if _, deployed := n.drcr.Component(name); deployed {
				continue
			}
			descs = append(descs, pl.desc)
		}
		if len(descs) > 0 {
			n.drcr.DeployAll(descs)
		}
	case "migrate-rm":
		_ = n.drcr.Remove(m.Topic)
	}
}
