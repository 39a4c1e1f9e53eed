// Package plan compiles a bundle's parsed component descriptors — plus
// a snapshot of the DRCR's current admitted view — into a pre-validated
// composition plan: typed, versioned port contracts checked at compile
// time, a flat wiring table (provider→consumer edges resolved per mode
// ladder), a topologically ordered activation schedule that reproduces
// the worklist engine's cursor order exactly, and precomputed admission
// deltas (per-CPU budget sums).
//
// A plan is the unit the runtime fast-applies (core.ApplyPlan installs,
// wires and activates the whole DAG in one pass) and the unit the
// cluster ships between nodes for migration and evacuation. The plan
// path is a pure fast path, never a semantic fork: everything a plan
// asserts is revalidated against the live runtime before it is applied,
// and any mismatch falls back to the per-descriptor event path. The
// differential tests pin byte-identical event logs and observability
// digests between the two paths.
//
// Compilation rejects impossible compositions early — reject-at-compile
// beats deny-at-runtime. A rejection is raised only for a *typed*
// conflict: some provider speaks the consumer's topic at a compatible
// size but every such candidate fails the version-range or structural
// datatype check, so the inport can never bind while those are the only
// speakers. A merely absent provider is not an error (the component
// waits, exactly like declarative services), and untyped size mismatches
// keep their legacy wait semantics.
package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/descriptor"
	"repro/internal/policy"
	"repro/internal/rtos/ipc"
)

// admitEps mirrors the float tolerance of policy.Utilization.
const admitEps = 1e-9

// Env snapshots the runtime state a plan is compiled against.
type Env struct {
	// NumCPUs is the kernel's simulated CPU count.
	NumCPUs int
	// Bound is the internal resolver's utilization bound (1.0 default).
	Bound float64
	// View is the current admitted view: name-sorted contracts plus the
	// per-CPU declared-budget accumulators.
	View policy.View
	// Providers lists every outport admitted outside the bundle — local
	// components and remote provisions — that could satisfy a bundle
	// inport.
	Providers []ExtProvider
}

// ExtProvider is one outport admitted outside the bundle.
type ExtProvider struct {
	Origin string // component name, or component@node for remote entries
	Remote bool
	Port   descriptor.Port
}

// Edge is one row of the flat wiring table: a consumer inport and the
// provider the engines would bind it to (or "" when unbound).
type Edge struct {
	Consumer string
	Inport   string
	Provider string // plan member name or external origin; "" if unbound
	External bool
	// Modes lists the consumer's service modes that require this inport
	// (a mode's drops list exempts it).
	Modes []string
}

// CPUDelta is the admission delta on one CPU for a uniform mode rung.
type CPUDelta struct {
	CPU           int
	Before, After float64
	Delta         float64
}

// Leftover is a plan member that installs but cannot activate (no
// service mode has all its required inports satisfiable).
type Leftover struct {
	Name string
	// Missing is mode 0's first unsatisfied inport once the whole
	// schedule has run — the reason string the engines would leave.
	Missing string
	// CauseIdx is the schedule index of the provider whose activation
	// seeds the component's pending span cause (-1: none).
	CauseIdx int
}

// Plan is a compiled, pre-validated composition plan.
type Plan struct {
	// Key is the descriptor-set digest the plan cache is keyed by.
	Key string
	// Components in install (manifest resource) order.
	Components []*descriptor.Component
	// Schedule is the activation order: exactly the order the worklist
	// engine's cursor admits the members at mode 0.
	Schedule []string
	// CauseIdx has one entry per Schedule entry: the schedule index of
	// the member whose activation span becomes this member's transition
	// cause (-1: no internal cause; the span chain starts fresh).
	CauseIdx []int
	// Leftovers are installed members that stay Unsatisfied.
	Leftovers []Leftover
	// Edges is the wiring table, sorted by consumer then inport.
	Edges []Edge
	// BindRows has one row per Schedule entry: the provider each of the
	// member's inports (by InPorts index) binds to at its activation
	// moment — only earlier-scheduled members and external providers are
	// live then, so a row can differ from the final Edges table. The
	// apply fast path installs these instead of re-querying the provider
	// index per inport; values are bit-identical to findProviderLocked's
	// at the same point in the schedule.
	BindRows [][]string
	// Deltas is the per-CPU admission delta of activating the schedule
	// at mode 0 against the compile-time view.
	Deltas []CPUDelta
	// RungDeltas[r] is the per-CPU budget sum the schedule would claim
	// with every member clamped to mode rung r (members with fewer
	// declared modes stay at their cheapest) — the precomputed admission
	// deltas per mode-ladder rung.
	RungDeltas [][]float64
	// Admissions records the Monte-Carlo verdict of every stochastic
	// schedule step (members with distribution-valued budgets, or
	// constant members joining a CPU that already carries one). Verdicts
	// are byte-identical to the runtime's: both sides call
	// policy.MCVerdict over the same composition. Non-empty Admissions
	// always comes with a Fallback — the event path emits the admit
	// spans the fast path cannot replicate.
	Admissions []AdmitNote
	// ExtFP fingerprints which (member, inport) pairs were satisfiable
	// by providers outside the bundle at compile time. Apply revalidates
	// it against the live indexes; a mismatch forces recompilation.
	ExtFP string
	// Fallback is non-empty when the plan compiled but cannot be
	// fast-applied (degraded-only feasibility, admission denial, ...);
	// the caller uses the per-descriptor event path instead.
	Fallback string
}

// AdmitNote is one compile-time Monte-Carlo admission verdict.
type AdmitNote struct {
	Name    string
	Verdict string
}

// PortIncompatibility is one typed port conflict: the exact port pair
// and why the provider cannot satisfy the consumer.
type PortIncompatibility struct {
	Provider     string // component name or external origin
	ProviderPort string
	Consumer     string
	ConsumerPort string
	Kind         string // "version" or "structure"
	Reason       string
}

func (e *PortIncompatibility) Error() string {
	return fmt.Sprintf("plan: %s.%s cannot satisfy %s.%s: %s (%s mismatch)",
		e.Provider, e.ProviderPort, e.Consumer, e.ConsumerPort, e.Reason, e.Kind)
}

// RejectError aggregates every typed conflict found at compile time.
type RejectError struct {
	Conflicts []*PortIncompatibility
}

func (e *RejectError) Error() string {
	if len(e.Conflicts) == 1 {
		return e.Conflicts[0].Error()
	}
	msgs := make([]string, len(e.Conflicts))
	for i, c := range e.Conflicts {
		msgs[i] = c.Error()
	}
	return fmt.Sprintf("plan: %d typed port conflicts: %s", len(e.Conflicts), strings.Join(msgs, "; "))
}

// renderDigests memoizes each descriptor's canonical-form digest by
// pointer identity. Descriptors are immutable once parsed, so the
// render — by far the most expensive part of keying — need only happen
// once per descriptor lifetime instead of on every deploy. Bounded so
// a pathological churn of fresh parses cannot grow it forever.
var renderDigests sync.Map // *descriptor.Component → [sha256.Size]byte

var renderDigestCount atomic.Int64

const renderDigestBound = 1 << 14

func contentDigest(d *descriptor.Component) [sha256.Size]byte {
	if v, ok := renderDigests.Load(d); ok {
		return v.([sha256.Size]byte)
	}
	sum := sha256.Sum256([]byte(d.Render()))
	if renderDigestCount.Add(1) > renderDigestBound {
		// Reset the memo once it hits the bound. Range+Delete instead of
		// Clear keeps the module at go1.22; entries stored concurrently
		// during the sweep may survive it, which only delays the next reset.
		renderDigests.Range(func(k, _ any) bool {
			renderDigests.Delete(k)
			return true
		})
		renderDigestCount.Store(1)
	}
	renderDigests.Store(d, sum)
	return sum
}

// KeyOf digests a descriptor set in install order. The canonical
// rendered form is hashed, so a re-parsed copy of the same descriptors
// hits the same cache slot.
func KeyOf(descs []*descriptor.Component) string {
	h := sha256.New()
	for _, d := range descs {
		sum := contentDigest(d)
		h.Write(sum[:])
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// portKey mirrors the runtime's topic identity: two ports with equal
// keys speak the same topic (§2.3) and differ at most in size and typed
// annotations.
type portKey struct {
	name  string
	iface descriptor.PortInterface
	typ   ipc.ElemType
}

func keyOf(p descriptor.Port) portKey { return portKey{p.Name, p.Interface, p.Type} }

// member is per-component compile state.
type member struct {
	desc    *descriptor.Component
	enabled bool
	// extSat[in.Name]: the inport is satisfiable by an external provider.
	extSat map[string]bool
}

// Compile builds a plan. A typed port conflict returns (*RejectError);
// every other obstacle to the fast path compiles successfully with
// Fallback set, so callers can still render the plan and route the
// deploy through the event path.
func Compile(descs []*descriptor.Component, env Env) (*Plan, error) {
	p := &Plan{Key: KeyOf(descs), Components: descs}
	if env.Bound <= 0 {
		env.Bound = 1.0
	}

	members := map[string]*member{}
	var names []string
	for _, d := range descs {
		if _, dup := members[d.Name]; dup {
			p.Fallback = fmt.Sprintf("duplicate component name %q", d.Name)
			return p, nil
		}
		members[d.Name] = &member{desc: d, enabled: d.Enabled, extSat: map[string]bool{}}
		names = append(names, d.Name)
	}
	sort.Strings(names)
	for _, d := range descs {
		if cpu := d.CPU(); cpu < 0 || cpu >= env.NumCPUs {
			p.Fallback = fmt.Sprintf("component %q pinned to cpu%d but kernel has %d CPUs", d.Name, cpu, env.NumCPUs)
			return p, nil
		}
	}

	// Internal provider index: topic → enabled members declaring an
	// outport on it, name-sorted (the engines' provider choice order).
	provIdx := map[portKey][]string{}
	for _, name := range names {
		m := members[name]
		if !m.enabled {
			continue
		}
		for _, out := range m.desc.OutPorts {
			k := keyOf(out)
			provIdx[k] = append(provIdx[k], name)
		}
	}

	// External satisfiability per (member, inport), the compatibility
	// fingerprint, and the typed-conflict check.
	extLocal := map[portKey][]ExtProvider{}
	extRemote := map[portKey][]ExtProvider{}
	for _, ep := range env.Providers {
		k := keyOf(ep.Port)
		if ep.Remote {
			extRemote[k] = append(extRemote[k], ep)
		} else {
			extLocal[k] = append(extLocal[k], ep)
		}
	}
	for _, eps := range extLocal {
		sort.Slice(eps, func(i, j int) bool { return eps[i].Origin < eps[j].Origin })
	}
	for _, eps := range extRemote {
		sort.Slice(eps, func(i, j int) bool { return eps[i].Origin < eps[j].Origin })
	}

	var reject RejectError
	var fp strings.Builder
	for _, name := range names {
		m := members[name]
		for _, in := range m.desc.InPorts {
			k := keyOf(in)
			sat := false
			for _, ep := range extLocal[k] {
				if ep.Origin != name && ep.Port.CanSatisfy(in) {
					sat = true
					break
				}
			}
			if !sat {
				for _, ep := range extRemote[k] {
					if ep.Port.CanSatisfy(in) {
						sat = true
						break
					}
				}
			}
			m.extSat[in.Name] = sat
			fmt.Fprintf(&fp, "%s/%s=%v;", name, in.Name, sat)

			// Typed-conflict scan: candidates that match the topic at a
			// compatible size but all fail the typed layer.
			if sat || !m.enabled {
				continue
			}
			var firstTyped *PortIncompatibility
			compatible := false
			consider := func(origin string, out descriptor.Port) {
				if compatible || origin == name {
					return
				}
				if out.Direction != descriptor.Out || out.Size < in.Size {
					return // untyped size mismatches keep wait semantics
				}
				if why := out.ExplainTypedMismatch(in); why != "" {
					if firstTyped == nil {
						kind := "structure"
						if strings.Contains(why, "version") {
							kind = "version"
						}
						firstTyped = &PortIncompatibility{
							Provider: origin, ProviderPort: out.Name,
							Consumer: name, ConsumerPort: in.Name,
							Kind: kind, Reason: why,
						}
					}
					return
				}
				compatible = true
			}
			for _, pn := range provIdx[k] {
				if pn == name {
					continue
				}
				pm := members[pn]
				for _, out := range pm.desc.OutPorts {
					if keyOf(out) == k {
						consider(pn, out)
					}
				}
			}
			for _, ep := range extLocal[k] {
				consider(ep.Origin, ep.Port)
			}
			for _, ep := range extRemote[k] {
				consider(ep.Origin, ep.Port)
			}
			if !compatible && firstTyped != nil {
				reject.Conflicts = append(reject.Conflicts, firstTyped)
			}
		}
	}
	sumFP := sha256.Sum256([]byte(fp.String()))
	p.ExtFP = hex.EncodeToString(sumFP[:])
	if len(reject.Conflicts) > 0 {
		return nil, &reject
	}

	p.compileSchedule(members, names, provIdx, extLocal, extRemote)
	if p.Fallback == "" {
		p.compileAdmission(members, env)
	}
	if p.Fallback == "" {
		p.compileBindings(members, extLocal, extRemote)
	}
	p.compileEdges(members, names, extLocal, extRemote)
	return p, nil
}

// compileBindings precomputes each scheduled member's activation-moment
// inport bindings. The runtime binds inports right before a component
// goes Active, when the provider index holds the pre-batch admitted set
// plus only the members scheduled earlier — so the simulation replays
// the schedule against a name-sorted index seeded with the external
// local providers, falling back to remote provisions in index order,
// exactly findProviderLocked's walk. The apply fast path installs these
// rows instead of paying an index query per inport per component.
func (p *Plan) compileBindings(members map[string]*member,
	extLocal, extRemote map[portKey][]ExtProvider) {

	type prov struct {
		origin string
		port   descriptor.Port
	}
	idx := map[portKey][]prov{}
	insert := func(k portKey, pr prov) {
		ps := idx[k]
		i := sort.Search(len(ps), func(i int) bool { return ps[i].origin >= pr.origin })
		ps = append(ps, prov{})
		copy(ps[i+1:], ps[i:])
		ps[i] = pr
		idx[k] = ps
	}
	for k, eps := range extLocal {
		for _, ep := range eps {
			insert(k, prov{ep.Origin, ep.Port})
		}
	}
	p.BindRows = make([][]string, len(p.Schedule))
	for si, name := range p.Schedule {
		m := members[name]
		row := make([]string, len(m.desc.InPorts))
		for pi, in := range m.desc.InPorts {
			k := keyOf(in)
			for _, pr := range idx[k] {
				if pr.origin != name && pr.port.CanSatisfy(in) {
					row[pi] = pr.origin
					break
				}
			}
			if row[pi] == "" {
				for _, ep := range extRemote[k] {
					if ep.Port.CanSatisfy(in) {
						row[pi] = ep.Origin
						break
					}
				}
			}
		}
		p.BindRows[si] = row
		for _, out := range m.desc.OutPorts {
			insert(keyOf(out), prov{name, out})
		}
	}
}

// satisfiedBy reports whether inport in of member name is satisfied
// given the currently-activated member set.
func satisfiedBy(name string, in descriptor.Port, members map[string]*member,
	provIdx map[portKey][]string, active map[string]bool) bool {
	if members[name].extSat[in.Name] {
		return true
	}
	for _, pn := range provIdx[keyOf(in)] {
		if pn == name || !active[pn] {
			continue
		}
		for _, out := range members[pn].desc.OutPorts {
			if out.CanSatisfy(in) {
				return true
			}
		}
	}
	return false
}

// mode0Missing returns the first mode-0 inport of name without a
// provider ("" when mode 0 is feasible), mirroring
// feasibleModesLocked's missing-name rule.
func mode0Missing(name string, members map[string]*member,
	provIdx map[portKey][]string, active map[string]bool) string {
	for _, in := range members[name].desc.InPorts {
		if !satisfiedBy(name, in, members, provIdx, active) {
			return in.Name
		}
	}
	return ""
}

// compileSchedule reproduces the worklist engine's activation order: an
// initial name-sorted round over every enabled member, a cursor that
// lets a consumer dirtied ahead of it join the current round while one
// behind it waits for the next, and cause seeding along the topic
// edges. Any member feasible only in a degraded mode (or denied — see
// compileAdmission) routes the whole plan to the event path, where
// downgrade-before-deny runs for real.
func (p *Plan) compileSchedule(members map[string]*member, names []string,
	provIdx map[portKey][]string,
	extLocal, extRemote map[portKey][]ExtProvider) {

	// Reverse edges: topic → enabled members with an inport on it,
	// name-sorted (the runtime's consIndex restricted to the bundle).
	consIdx := map[portKey][]string{}
	for _, name := range names {
		m := members[name]
		if !m.enabled {
			continue
		}
		for _, in := range m.desc.InPorts {
			k := keyOf(in)
			consIdx[k] = append(consIdx[k], name)
		}
	}

	active := map[string]bool{}
	scheduleIdx := map[string]int{}
	cause := map[string]int{} // member → schedule index of its span cause
	var round, next []string
	nextMember := map[string]bool{}
	for _, name := range names {
		if members[name].enabled {
			round = append(round, name)
		}
	}

	enqueueNext := func(name string) {
		if nextMember[name] {
			return
		}
		nextMember[name] = true
		i := sort.SearchStrings(next, name)
		next = append(next, "")
		copy(next[i+1:], next[i:])
		next[i] = name
	}
	insertTail := func(round []string, i int, name string) []string {
		tail := round[i+1:]
		j := sort.SearchStrings(tail, name)
		if j < len(tail) && tail[j] == name {
			return round
		}
		pos := i + 1 + j
		round = append(round, "")
		copy(round[pos+1:], round[pos:])
		round[pos] = name
		return round
	}

	for len(round) > 0 {
		for i := 0; i < len(round); i++ {
			name := round[i]
			if active[name] {
				continue
			}
			if mode0Missing(name, members, provIdx, active) != "" {
				continue // stays waiting; a later cascade may re-visit it
			}
			idx := len(p.Schedule)
			active[name] = true
			scheduleIdx[name] = idx
			p.Schedule = append(p.Schedule, name)
			ci := -1
			if c, ok := cause[name]; ok {
				ci = c
			}
			p.CauseIdx = append(p.CauseIdx, ci)
			// Cascade to the new provider's waiting consumers.
			for _, out := range members[name].desc.OutPorts {
				for _, cn := range consIdx[keyOf(out)] {
					if cn == name || active[cn] {
						continue
					}
					if _, seeded := cause[cn]; !seeded {
						cause[cn] = idx
					}
					if cn > name {
						round = insertTail(round, i, cn)
					} else {
						enqueueNext(cn)
					}
				}
			}
		}
		round, next = next, round[:0]
		for k := range nextMember {
			delete(nextMember, k)
		}
	}

	for _, name := range names {
		m := members[name]
		if !m.enabled || active[name] {
			continue
		}
		// Not schedulable at mode 0. If a degraded mode is feasible the
		// event path must run it (downgrade-before-deny emits its own
		// span chain); a member with no feasible mode at all just stays
		// Unsatisfied, which the fast path reproduces exactly.
		for mi := 1; mi < m.desc.NumModes(); mi++ {
			feasible := true
			for _, in := range m.desc.InPorts {
				if !m.desc.RequiresInport(mi, in.Name) {
					continue
				}
				if !satisfiedBy(name, in, members, provIdx, active) {
					feasible = false
					break
				}
			}
			if feasible {
				p.Fallback = fmt.Sprintf("component %q is feasible only in degraded mode %q", name, m.desc.ModeName(mi))
				return
			}
		}
		ci := -1
		if c, ok := cause[name]; ok {
			ci = c
		}
		p.Leftovers = append(p.Leftovers, Leftover{
			Name:     name,
			Missing:  mode0Missing(name, members, provIdx, active),
			CauseIdx: ci,
		})
	}
}

// compileAdmission dry-runs the internal utilization resolver over the
// schedule, reproducing the runtime's arithmetic exactly: a CPU's
// accumulator is re-summed from scratch in admitted-name order after
// every activation that lands on it (the runtime's rule), so the partial
// sums — and therefore every admit/deny verdict — are bit-for-bit the
// ones the event path computes. Any denial routes the plan to the event
// path.
func (p *Plan) compileAdmission(members map[string]*member, env Env) {
	onCPU := make([][]policy.Contract, env.NumCPUs)
	before := make([]float64, env.NumCPUs)
	load := make([]float64, env.NumCPUs)
	resum := func(cpu int) {
		load[cpu] = 0
		for _, ct := range onCPU[cpu] {
			load[cpu] += ct.CPUUsage
		}
	}
	for cpu := range onCPU {
		onCPU[cpu] = env.View.OnCPU(cpu)
		resum(cpu)
	}
	copy(before, load)

	// Stochastic steps Monte-Carlo-sample the composed per-CPU load with
	// the shared policy sampler, so compile-time verdicts are
	// byte-identical to the runtime's. The flag tracks whether any
	// distribution-valued contract is in play (view or schedule prefix).
	stochastic := env.View.Stochastic
	for _, name := range p.Schedule {
		desc := members[name].desc
		cpu := desc.CPU()
		cand := policy.Contract{Name: name, CPU: cpu, CPUUsage: desc.CPUUsage,
			Budget: desc.Budget, MetP: desc.BudgetP}
		handled := false
		if stochastic || cand.Budget != nil {
			if v, ok := policy.MCVerdict(env.Bound, load[cpu], onCPU[cpu], cand); ok {
				dec := v.Decision(cpu, env.Bound)
				if cand.Budget != nil {
					// Only budget-declaring members get an admit span at
					// runtime; mirror that so notes and spans line up 1:1.
					p.Admissions = append(p.Admissions, AdmitNote{Name: name, Verdict: dec.Reason})
				}
				if !dec.Admit {
					p.Fallback = fmt.Sprintf("component %q would be denied at mode 0 (%s)", name, dec.Reason)
					return
				}
				handled = true
			}
		}
		if !handled {
			if sum := desc.CPUUsage + load[cpu]; sum > env.Bound+admitEps {
				p.Fallback = fmt.Sprintf("component %q would be denied at mode 0 (cpu%d budget %.3f exceeds bound %.3f)",
					name, cpu, sum, env.Bound)
				return
			}
		}
		if cand.Budget != nil {
			stochastic = true
		}
		// The view's slices carry no spare capacity, so the first insert
		// on a CPU copies it and the view stays untouched.
		i := sort.Search(len(onCPU[cpu]), func(i int) bool { return onCPU[cpu][i].Name >= name })
		onCPU[cpu] = slices.Insert(onCPU[cpu], i, cand)
		resum(cpu)
	}
	for cpu := 0; cpu < env.NumCPUs; cpu++ {
		if load[cpu] != before[cpu] {
			p.Deltas = append(p.Deltas, CPUDelta{
				CPU: cpu, Before: before[cpu], After: load[cpu], Delta: load[cpu] - before[cpu],
			})
		}
	}

	// Per-rung budget sums: the schedule clamped to each uniform mode
	// ladder rung (members without that rung stay at their cheapest).
	maxModes := 1
	for _, name := range p.Schedule {
		if n := members[name].desc.NumModes(); n > maxModes {
			maxModes = n
		}
	}
	for r := 0; r < maxModes; r++ {
		sums := make([]float64, env.NumCPUs)
		for _, name := range p.Schedule {
			desc := members[name].desc
			rung := r
			if rung >= desc.NumModes() {
				rung = desc.NumModes() - 1
			}
			sums[desc.CPU()] += desc.ModeSpec(rung).CPUUsage
		}
		p.RungDeltas = append(p.RungDeltas, sums)
	}

	if len(p.Admissions) > 0 && p.Fallback == "" {
		// Every stochastic step admitted, but the fast path cannot
		// replicate the admit spans the event path emits per activation —
		// route the apply there; the compiled verdicts above are the ones
		// the engines will reproduce.
		p.Fallback = "stochastic budgets admit: event path carries the Monte-Carlo admit spans"
	}
}

// compileEdges fills the wiring table: for every enabled member inport,
// the provider the engines would bind once the whole schedule is active
// — plan members and already-admitted local components in one
// name-sorted order, then remote provisions in origin order.
func (p *Plan) compileEdges(members map[string]*member, names []string,
	extLocal, extRemote map[portKey][]ExtProvider) {
	scheduled := map[string]bool{}
	for _, n := range p.Schedule {
		scheduled[n] = true
	}
	// One outport index over the scheduled members, in name order then
	// declared order: exactly the sequence a scan of every member's
	// outports per inport would visit, built once.
	type cand struct {
		origin string
		port   descriptor.Port
		ext    bool
	}
	outIdx := map[portKey][]cand{}
	for _, pn := range names {
		if !scheduled[pn] {
			continue
		}
		for _, out := range members[pn].desc.OutPorts {
			k := keyOf(out)
			outIdx[k] = append(outIdx[k], cand{pn, out, false})
		}
	}
	var cands []cand
	for _, name := range names {
		m := members[name]
		if !m.enabled {
			continue
		}
		for _, in := range m.desc.InPorts {
			var modes []string
			for mi := 0; mi < m.desc.NumModes(); mi++ {
				if m.desc.RequiresInport(mi, in.Name) {
					modes = append(modes, m.desc.ModeName(mi))
				}
			}
			e := Edge{Consumer: name, Inport: in.Name, Modes: modes}
			k := keyOf(in)
			// Merge plan members and external local providers in name
			// order, mirroring the admitted-set scan.
			cands = cands[:0]
			for _, c := range outIdx[k] {
				if c.origin != name {
					cands = append(cands, c)
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
			p.Edges = append(p.Edges, e)
		}
	}
	sort.Slice(p.Edges, func(i, j int) bool {
		if p.Edges[i].Consumer != p.Edges[j].Consumer {
			return p.Edges[i].Consumer < p.Edges[j].Consumer
		}
		return p.Edges[i].Inport < p.Edges[j].Inport
	})
}

// AdmitDryRun re-runs the admission dry-run against a live view (see
// compileAdmission); it returns "" when every scheduled member admits
// at mode 0, else the reason the fast path must not run.
func (p *Plan) AdmitDryRun(view policy.View, numCPUs int, bound float64) string {
	if bound <= 0 {
		bound = 1.0
	}
	// A view that has gained distribution-valued contracts since compile
	// time decides admission by Monte-Carlo sampling, not the constant
	// sums below; the event path must run so its verdicts (and admit
	// spans) are the ones recorded.
	if view.Stochastic {
		return "admitted view carries stochastic budgets: the event path decides admission"
	}
	byName := map[string]*descriptor.Component{}
	for _, d := range p.Components {
		byName[d.Name] = d
	}
	// The engine re-sums a CPU's load from scratch, in admitted-name
	// order, after each admission there; the dry-run must reproduce those
	// float sums bit for bit, so it keeps each CPU's name-ordered list.
	onCPU := make([][]policy.Contract, numCPUs)
	load := make([]float64, numCPUs)
	resum := func(cpu int) {
		load[cpu] = 0
		for _, ct := range onCPU[cpu] {
			load[cpu] += ct.CPUUsage
		}
	}
	for cpu := range onCPU {
		onCPU[cpu] = view.OnCPU(cpu)
		resum(cpu)
	}
	for _, name := range p.Schedule {
		desc := byName[name]
		cpu := desc.CPU()
		if cpu < 0 || cpu >= numCPUs {
			return fmt.Sprintf("component %q pinned to cpu%d out of range", name, cpu)
		}
		if sum := desc.CPUUsage + load[cpu]; sum > bound+admitEps {
			return fmt.Sprintf("component %q would be denied at mode 0 (cpu%d budget %.3f exceeds bound %.3f)",
				name, cpu, sum, bound)
		}
		i := sort.Search(len(onCPU[cpu]), func(i int) bool { return onCPU[cpu][i].Name >= name })
		onCPU[cpu] = slices.Insert(onCPU[cpu], i, policy.Contract{Name: name, CPU: cpu, CPUUsage: desc.CPUUsage})
		resum(cpu)
	}
	return ""
}

// Fingerprint recomputes the external-satisfiability fingerprint
// against a live provider set; apply compares it with the compile-time
// ExtFP and recompiles on mismatch.
func Fingerprint(descs []*descriptor.Component, providers []ExtProvider) string {
	extLocal := map[portKey][]ExtProvider{}
	extRemote := map[portKey][]ExtProvider{}
	for _, ep := range providers {
		k := keyOf(ep.Port)
		if ep.Remote {
			extRemote[k] = append(extRemote[k], ep)
		} else {
			extLocal[k] = append(extLocal[k], ep)
		}
	}
	names := make([]string, 0, len(descs))
	byName := map[string]*descriptor.Component{}
	for _, d := range descs {
		names = append(names, d.Name)
		byName[d.Name] = d
	}
	sort.Strings(names)
	var fp strings.Builder
	for _, name := range names {
		for _, in := range byName[name].InPorts {
			k := keyOf(in)
			sat := false
			for _, ep := range extLocal[k] {
				if ep.Origin != name && ep.Port.CanSatisfy(in) {
					sat = true
					break
				}
			}
			if !sat {
				for _, ep := range extRemote[k] {
					if ep.Port.CanSatisfy(in) {
						sat = true
						break
					}
				}
			}
			fmt.Fprintf(&fp, "%s/%s=%v;", name, in.Name, sat)
		}
	}
	sum := sha256.Sum256([]byte(fp.String()))
	return hex.EncodeToString(sum[:])
}
