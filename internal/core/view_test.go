package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/descriptor"
	"repro/internal/osgi"
	"repro/internal/policy"
	"repro/internal/rtos"
)

// viewCopy is a deep copy of everything a view exposes, for comparing a
// snapshot against a recompute and for checking that a snapshot never
// changes after later writes.
type viewCopy struct {
	Epoch      uint64
	Contracts  []policy.Contract
	OnCPU      [][]policy.Contract
	CPULoad    []float64
	Stochastic bool
}

func copyView(v policy.View) viewCopy {
	c := viewCopy{Epoch: v.Epoch, Stochastic: v.Stochastic,
		Contracts: append([]policy.Contract{}, v.Contracts()...),
		CPULoad:   append([]float64{}, v.CPULoad...)}
	for cpu := 0; cpu < v.NumCPUs; cpu++ {
		c.OnCPU = append(c.OnCPU, append([]policy.Contract{}, v.OnCPU(cpu)...))
	}
	return c
}

// recomputeView is the test-only full recompute of the admission view:
// every admitted record's current contract, name-sorted, split per CPU,
// and each CPU's budget summed in name order.
func recomputeView(d *DRCR) viewCopy {
	v := viewCopy{Contracts: []policy.Contract{},
		OnCPU: make([][]policy.Contract, d.kernel.NumCPUs()), CPULoad: make([]float64, d.kernel.NumCPUs())}
	for _, c := range d.comps {
		if admittedSet(c.state) {
			v.Contracts = append(v.Contracts, contractAt(c.desc, c.mode))
		}
	}
	sort.Slice(v.Contracts, func(i, j int) bool { return v.Contracts[i].Name < v.Contracts[j].Name })
	for _, ct := range v.Contracts {
		v.OnCPU[ct.CPU] = append(v.OnCPU[ct.CPU], ct)
		v.CPULoad[ct.CPU] += ct.CPUUsage
		v.Stochastic = v.Stochastic || ct.Budget != nil
	}
	return v
}

// withdrawn is a recomputed view minus one component, with that
// component's budget subtracted from its CPU's sum: the promotion view's
// arithmetic.
func withdrawn(v viewCopy, name string) viewCopy {
	out := viewCopy{CPULoad: append([]float64{}, v.CPULoad...)}
	for _, ct := range v.Contracts {
		if ct.Name == name {
			out.CPULoad[ct.CPU] -= ct.CPUUsage
			continue
		}
		out.Contracts = append(out.Contracts, ct)
		out.Stochastic = out.Stochastic || ct.Budget != nil
	}
	for _, cts := range v.OnCPU {
		var keep []policy.Contract
		for _, ct := range cts {
			if ct.Name != name {
				keep = append(keep, ct)
			}
		}
		out.OnCPU = append(out.OnCPU, keep)
	}
	return out
}

// equalViews compares a snapshot with a recompute, ignoring the epoch
// and treating nil and empty lists alike.
func equalViews(got, want viewCopy) bool {
	norm := func(v viewCopy) viewCopy {
		v.Epoch = 0
		if v.Contracts == nil {
			v.Contracts = []policy.Contract{}
		}
		for i := range v.OnCPU {
			if v.OnCPU[i] == nil {
				v.OnCPU[i] = []policy.Contract{}
			}
		}
		return v
	}
	return reflect.DeepEqual(norm(got), norm(want))
}

func viewXML(name string, cpu int, usage float64, in, out string, modes bool, dist string) string {
	s := fmt.Sprintf(`<component name=%q type="periodic" cpuusage="%g">
  <implementation bincode="view.Body"/>
  <periodictask frequence="100" runoncup="%d" priority="5"/>
`, name, usage, cpu)
	if in != "" {
		s += fmt.Sprintf(`  <inport name=%q interface="RTAI.SHM" type="Integer" size="64"/>`+"\n", in)
	}
	if out != "" {
		s += fmt.Sprintf(`  <outport name=%q interface="RTAI.SHM" type="Integer" size="64"/>`+"\n", out)
	}
	if dist != "" {
		s += fmt.Sprintf(`  <budget dist=%q p="0.9"/>`+"\n", dist)
	}
	if modes {
		s += fmt.Sprintf(`  <mode name="eco" frequence="50" cpuusage="%g"/>`+"\n", usage/2)
		s += fmt.Sprintf(`  <mode name="min" frequence="10" cpuusage="%g"/>`+"\n", usage/10)
	}
	return s + `</component>`
}

// viewPool is the component population of the view differential test:
// four CPUs, provider/consumer pairs, mode ladders, stochastic budgets
// and heavy components that keep admission contested.
func viewPool(t *testing.T) []*descriptor.Component {
	var out []*descriptor.Component
	for i := 0; i < 16; i++ {
		cpu := i % 4
		usage := 0.05 + 0.05*float64(i%5)
		in, out2 := "", ""
		if i%3 == 1 {
			out2 = fmt.Sprintf("t%d", i/3)
		}
		if i%3 == 2 {
			in = fmt.Sprintf("t%d", i/3)
		}
		dist := ""
		if i%5 == 3 {
			dist = fmt.Sprintf("normal(%g,0.01)", usage)
		}
		if i%7 == 6 {
			usage = 0.6
		}
		out = append(out, mustParse(t, viewXML(fmt.Sprintf("v%02d", i), cpu, usage, in, out2, i%2 == 0, dist)))
	}
	return out
}

// TestViewMatchesRecompute drives seeded lifecycle storms through both
// resolve engines at 1 and 4 shards and checks, after every step, that
// the admission view equals a full recompute (contracts, every OnCPU,
// CPULoad bit for bit, Stochastic), that equal epochs describe equal
// admitted sets, that every promotion view equals the recompute minus
// its component, and that the previous step's snapshot is still what it
// was when taken.
func TestViewMatchesRecompute(t *testing.T) {
	for _, fullSweep := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("fullsweep=%v/shards=%d", fullSweep, shards), func(t *testing.T) {
				viewStorm(t, fullSweep, shards, 400)
			})
		}
	}
}

func viewStorm(t *testing.T, fullSweep bool, shards, steps int) {
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{NumCPUs: 4, Timing: &noNoise, Seed: 5})
	d, err := New(fw, k, Options{FullSweepResolve: fullSweep, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	pool := viewPool(t)
	// A customized resolving service that reads individual contracts:
	// at most 9 admitted overall, and RMA on the candidate's CPU.
	custom := policy.Func{Label: "custom", F: func(v policy.View, cand policy.Contract) policy.Decision {
		if len(v.Contracts()) >= 9 {
			return policy.Decision{Reason: "population cap"}
		}
		return policy.RMA{}.Admit(v, cand)
	}}
	var reg *osgi.ServiceRegistration

	rng := rand.New(rand.NewSource(int64(7 + shards)))
	// Coverage: steps with a promotion view compared, with a stochastic
	// contract admitted, with the customized service registered, and
	// with a degraded component admitted.
	var promoSteps, stochSteps, customSteps, degradedSteps int
	prev, prevView := viewCopy{}, policy.View{}
	for step := 0; step < steps; step++ {
		desc := pool[rng.Intn(len(pool))]
		name := desc.Name
		var what string
		switch op := rng.Intn(12); op {
		case 0, 1:
			what = "deploy"
			_ = d.Deploy(desc)
		case 2:
			what = "remove"
			_ = d.Remove(name)
		case 3:
			what = "suspend"
			_ = d.Suspend(name)
		case 4:
			what = "resume"
			_ = d.Resume(name)
		case 5:
			what = "revoke"
			_ = d.RevokeBudget(name, "test")
		case 6:
			what = "restore"
			_ = d.RestoreBudget(name)
		case 7, 8:
			what = "downgrade"
			_ = d.Downgrade(name, "test")
		case 9:
			what = "promote"
			_ = d.AllowPromotion(name)
		case 10:
			what = "disable/enable"
			if rng.Intn(2) == 0 {
				_ = d.Disable(name)
			} else {
				_ = d.Enable(name)
			}
		case 11:
			if reg == nil {
				what = "register custom resolver"
				reg, err = fw.RegisterService([]string{policy.ServiceInterface}, policy.Resolver(custom), nil)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				what = "unregister custom resolver"
				_ = reg.Unregister()
				reg = nil
			}
			d.Resolve()
		}
		where := fmt.Sprintf("step %d (%s %s)", step, what, name)

		v := d.GlobalView()
		got := copyView(v)
		d.mu.Lock()
		want := recomputeView(d)
		epoch := d.viewEpoch
		var promos []string
		for _, n := range d.degraded {
			if c := d.comps[n]; c != nil && c.state == Active {
				promos = append(promos, n)
			}
		}
		promoViews := map[string]viewCopy{}
		promoWant := map[string]viewCopy{}
		for _, n := range promos {
			promoViews[n] = copyView(d.promotionViewLocked(d.comps[n]))
			promoWant[n] = withdrawn(want, n)
		}
		d.mu.Unlock()

		if got.Epoch != epoch {
			t.Fatalf("%s: view epoch %d, producer epoch %d", where, got.Epoch, epoch)
		}
		if !equalViews(got, want) {
			t.Fatalf("%s: view differs from recompute\n got %+v\nwant %+v", where, got, want)
		}
		if v.NumCPUs != 4 || len(v.CPULoad) != 4 {
			t.Fatalf("%s: NumCPUs %d, %d load entries", where, v.NumCPUs, len(v.CPULoad))
		}
		if step > 0 {
			// Equal epochs must describe equal sets (the reverse need not
			// hold: a deactivate-reactivate round trip moves the epoch).
			if got.Epoch == prev.Epoch && !reflect.DeepEqual(got.Contracts, prev.Contracts) {
				t.Fatalf("%s: equal epochs %d describe different admitted sets", where, got.Epoch)
			}
			if again := copyView(prevView); !reflect.DeepEqual(again, prev) {
				t.Fatalf("%s: the previous snapshot changed under a later write\nthen %+v\n now %+v", where, prev, again)
			}
		}
		for _, n := range promos {
			if !equalViews(promoViews[n], promoWant[n]) {
				t.Fatalf("%s: promotion view of %s differs\n got %+v\nwant %+v", where, n, promoViews[n], promoWant[n])
			}
		}
		prev, prevView = got, v
		if len(promos) > 0 {
			promoSteps++
		}
		if got.Stochastic {
			stochSteps++
		}
		if reg != nil {
			customSteps++
		}
		for _, ct := range got.Contracts {
			if ct.CPUUsage < 0.05-1e-12 || (ct.Period > 10*time.Millisecond) {
				degradedSteps++
				break
			}
		}
	}
	t.Logf("steps with promotion views %d, stochastic %d, custom resolver %d, degraded %d",
		promoSteps, stochSteps, customSteps, degradedSteps)
	if min := steps / 10; promoSteps < min || stochSteps < min || customSteps < min || degradedSteps < min {
		t.Fatalf("storm lost coverage: promotion %d, stochastic %d, custom %d, degraded %d of %d steps",
			promoSteps, stochSteps, customSteps, degradedSteps, steps)
	}
}

// flatRig deploys n independent components round-robin over four CPUs
// and returns the DRCR with every one of them admitted.
func flatRig(t *testing.T, n int) *DRCR {
	t.Helper()
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{NumCPUs: 4, Timing: &noNoise, Seed: 3})
	d, err := New(fw, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	for i := 0; i < n; i++ {
		if err := d.Deploy(mustParse(t, viewXML(fmt.Sprintf("f%04d", i), i%4, 0.0001, "", "", false, ""))); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(d.GlobalView().Contracts()); got != n {
		t.Fatalf("%d of %d admitted", got, n)
	}
	return d
}

// TestActivationAllocsIndependentOfPopulation: the admission work of one
// activation under the default resolver chain — withdraw the contract,
// snapshot the view, consult the chain, admit the contract — allocates
// the same number of objects among 100 admitted components as among
// 2000. (A whole Disable/Enable round trip also re-creates the task and
// the management service, whose registry and event-pool growth is
// amortized differently at different populations.)
func TestActivationAllocsIndependentOfPopulation(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{100, 2000} {
		d := flatRig(t, n)
		c := d.comps["f0001"]
		cand := contractAt(c.desc, 0)
		admit := func() {
			d.mu.Lock()
			d.noteTransitionLocked(c, Active, Satisfied)
			view := d.viewLocked()
			d.mu.Unlock()
			if dec := d.consultResolvers(view, cand); !dec.Admit {
				t.Fatalf("n=%d: %s denied: %s", n, cand.Name, dec.Reason)
			}
			d.mu.Lock()
			d.noteTransitionLocked(c, Satisfied, Active)
			_ = d.viewLocked()
			d.mu.Unlock()
		}
		allocs[n] = testing.AllocsPerRun(100, admit)
	}
	if allocs[100] != allocs[2000] {
		t.Fatalf("an activation's admission allocates %.0f objects at N=100 but %.0f at N=2000", allocs[100], allocs[2000])
	}
}

// TestSnapshotAfterWriteCostsNumCPUs: rebuilding the view after the
// admitted set moved allocates a constant number of objects and the
// same bytes among 100 admitted components as among 2000 — O(NumCPUs),
// no contract copied.
func TestSnapshotAfterWriteCostsNumCPUs(t *testing.T) {
	const runs = 200
	bytes := map[int]uint64{}
	for _, n := range []int{100, 2000} {
		d := flatRig(t, n)
		rebuild := func() {
			d.mu.Lock()
			d.viewEpoch++ // what any write does; the snapshot must follow
			d.mu.Unlock()
			_ = d.GlobalView()
		}
		if a := testing.AllocsPerRun(runs, rebuild); a > 3 {
			t.Fatalf("n=%d: view rebuild allocates %.0f objects, want at most 3", n, a)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			rebuild()
		}
		runtime.ReadMemStats(&after)
		bytes[n] = (after.TotalAlloc - before.TotalAlloc) / runs
	}
	if bytes[100] != bytes[2000] {
		t.Fatalf("view rebuild allocates %d B at N=100 but %d B at N=2000", bytes[100], bytes[2000])
	}
}

// TestViewConcurrentReaders reads snapshots from several goroutines —
// the flat list through Contracts (one snapshot shared by all readers),
// every OnCPU, and appends to them, as RMA does — while another
// goroutine deploys, downgrades, promotes and removes, so the race
// detector sees copy-on-write and the lazy merge under contention.
func TestViewConcurrentReaders(t *testing.T) {
	d := flatRig(t, 200)
	pool := viewPool(t)
	done := make(chan struct{})
	var wg, started sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if i == 1 {
					started.Done()
				}
				select {
				case <-done:
					return
				default:
				}
				// Dwell on each snapshot, so reads overlap the writer's
				// next edits rather than all landing between them.
				v := d.GlobalView()
				for pass := 0; pass < 20; pass++ {
					n := 0
					for cpu := 0; cpu < v.NumCPUs; cpu++ {
						on := v.OnCPU(cpu)
						for _, ct := range on {
							if ct.CPU != cpu {
								t.Errorf("contract %s of cpu%d listed on cpu%d", ct.Name, ct.CPU, cpu)
								return
							}
						}
						n += len(on)
						_ = append(on, policy.Contract{Name: "probe", CPU: cpu})
					}
					if all := v.Contracts(); len(all) != n {
						t.Errorf("snapshot has %d contracts but %d across its CPUs", len(all), n)
						return
					}
				}
			}
		}()
	}
	started.Wait()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		desc := pool[rng.Intn(len(pool))]
		switch rng.Intn(4) {
		case 0:
			_ = d.Deploy(desc)
		case 1:
			_ = d.Downgrade(desc.Name, "test")
		case 2:
			_ = d.AllowPromotion(desc.Name)
		case 3:
			_ = d.Remove(desc.Name)
		}
	}
	close(done)
	wg.Wait()
}
