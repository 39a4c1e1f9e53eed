package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/descriptor"
	"repro/internal/manifest"
	"repro/internal/osgi"
	"repro/internal/rtos"
)

// TestThreeLevelCascade checks cascade deactivation across a chain
// A -> B -> C when the root provider goes away.
func TestThreeLevelCascade(t *testing.T) {
	_, k, d := newRig(t)
	chain := []string{
		`<component name="src" type="periodic" cpuusage="0.02">
		  <implementation bincode="x"/>
		  <periodictask frequence="100" runoncup="0" priority="1"/>
		  <outport name="p1" interface="RTAI.SHM" type="Byte" size="8"/>
		</component>`,
		`<component name="mid" type="periodic" cpuusage="0.02">
		  <implementation bincode="x"/>
		  <periodictask frequence="100" runoncup="0" priority="2"/>
		  <inport name="p1" interface="RTAI.SHM" type="Byte" size="8"/>
		  <outport name="p2" interface="RTAI.SHM" type="Byte" size="8"/>
		</component>`,
		`<component name="end" type="periodic" cpuusage="0.02">
		  <implementation bincode="x"/>
		  <periodictask frequence="100" runoncup="0" priority="3"/>
		  <inport name="p2" interface="RTAI.SHM" type="Byte" size="8"/>
		</component>`,
	}
	// Deploy in reverse order to prove order-independence.
	for i := len(chain) - 1; i >= 0; i-- {
		if err := d.Deploy(mustParse(t, chain[i])); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"src", "mid", "end"} {
		if got := stateOf(t, d, name); got != Active {
			t.Fatalf("%s = %v", name, got)
		}
	}
	// Root removal cascades through the whole chain.
	if err := d.Remove("src"); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "mid"); got != Unsatisfied {
		t.Fatalf("mid = %v", got)
	}
	if got := stateOf(t, d, "end"); got != Unsatisfied {
		t.Fatalf("end = %v", got)
	}
	if n := len(k.Tasks()); n != 0 {
		t.Fatalf("tasks left: %d", n)
	}
	// Root return reactivates the chain.
	if err := d.Deploy(mustParse(t, chain[0])); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"src", "mid", "end"} {
		if got := stateOf(t, d, name); got != Active {
			t.Fatalf("%s after redeploy = %v", name, got)
		}
	}
}

// TestBundleWithMalformedDescriptorSkipped mirrors SCR behaviour: a bad
// descriptor in a bundle is skipped, good ones still load.
func TestBundleWithMalformedDescriptorSkipped(t *testing.T) {
	fw, _, d := newRig(t)
	m := manifest.New("mixed", manifest.MustParseVersion("1.0"))
	m.DRComComponents = []string{"OSGI-INF/good.xml", "OSGI-INF/bad.xml", "OSGI-INF/missing.xml"}
	b, err := fw.Install(osgi.Definition{
		Manifest: m,
		Resources: map[string]string{
			"OSGI-INF/good.xml": calcXML,
			"OSGI-INF/bad.xml":  `<component name="waytoolong"`,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "calc"); got != Active {
		t.Fatalf("good component = %v", got)
	}
	if len(d.Components()) != 1 {
		t.Fatalf("components = %v", d.Components())
	}
}

// TestDisabledDescriptorInBundle: enabled="false" components wait for
// enableRTComponent even when delivered via bundles.
func TestDisabledDescriptorInBundle(t *testing.T) {
	fw, _, d := newRig(t)
	src := `<component name="lazy" type="periodic" enabled="false" cpuusage="0.01">
	  <implementation bincode="x"/>
	  <periodictask frequence="10" runoncup="0" priority="1"/>
	</component>`
	m := manifest.New("lazyb", manifest.MustParseVersion("1.0"))
	m.DRComComponents = []string{"OSGI-INF/lazy.xml"}
	b, err := fw.Install(osgi.Definition{
		Manifest:  m,
		Resources: map[string]string{"OSGI-INF/lazy.xml": src},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "lazy"); got != Disabled {
		t.Fatalf("lazy = %v", got)
	}
	if err := d.Enable("lazy"); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "lazy"); got != Active {
		t.Fatalf("lazy after enable = %v", got)
	}
}

// TestInvariantsUnderChurn drives pseudo-random deploy/remove/enable/
// disable/suspend sequences and asserts the DRCR's two core invariants
// after every step:
//
//  1. admission: the summed declared budgets of admitted components never
//     exceed the bound on any CPU;
//  2. functional: every Active/Suspended component's inports are bound to
//     an admitted provider.
func TestInvariantsUnderChurn(t *testing.T) {
	mkDesc := func(i int, usage float64, withIn, withOut bool) *descriptor.Component {
		ports := ""
		if withOut {
			ports += `<outport name="p` + fmt.Sprint(i%3) + `" interface="RTAI.SHM" type="Byte" size="8"/>`
		}
		if withIn {
			ports += `<inport name="p` + fmt.Sprint((i+1)%3) + `" interface="RTAI.SHM" type="Byte" size="8"/>`
		}
		src := fmt.Sprintf(`<component name="n%02d" type="periodic" cpuusage="%.3f">
		  <implementation bincode="x"/>
		  <periodictask frequence="100" runoncup="%d" priority="%d"/>
		  %s
		</component>`, i, usage, i%2, i+1, ports)
		c, err := descriptor.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	prop := func(script []uint8) bool {
		fw := osgi.NewFramework()
		k := rtos.NewKernel(rtos.Config{NumCPUs: 2, Timing: &noNoise, Seed: 99})
		d, err := New(fw, k, Options{})
		if err != nil {
			return false
		}
		defer d.Close()
		for step, op := range script {
			i := int(op % 8)
			name := fmt.Sprintf("n%02d", i)
			switch (op / 8) % 6 {
			case 0:
				_ = d.Deploy(mkDesc(i, float64(op%40)/100+0.05, op%2 == 0, op%3 == 0))
			case 1:
				_ = d.Remove(name)
			case 2:
				_ = d.Enable(name)
			case 3:
				_ = d.Disable(name)
			case 4:
				_ = d.Suspend(name)
			case 5:
				_ = d.Resume(name)
			}
			_ = k.Run(time.Millisecond)

			// Invariant 1: per-CPU admitted budget within bound.
			view := d.GlobalView()
			for cpuID := 0; cpuID < view.NumCPUs; cpuID++ {
				var sum float64
				for _, ct := range view.OnCPU(cpuID) {
					sum += ct.CPUUsage
				}
				if sum > 1.0+1e-9 {
					t.Logf("step %d: cpu%d over budget: %v", step, cpuID, sum)
					return false
				}
			}
			// Invariant 2: every admitted component's inports are bound.
			admitted := map[string]bool{}
			for _, info := range d.Components() {
				if info.State == Active || info.State == Suspended {
					admitted[info.Name] = true
				}
			}
			for _, info := range d.Components() {
				if info.State != Active && info.State != Suspended {
					continue
				}
				for port, provider := range info.Bindings {
					if provider == "" || !admitted[provider] {
						t.Logf("step %d: %s inport %s bound to %q (not admitted)",
							step, info.Name, port, provider)
						return false
					}
				}
			}
			// Invariant 3: kernel tasks exactly match admitted components.
			if len(k.Tasks()) != len(admitted) {
				t.Logf("step %d: %d tasks vs %d admitted", step, len(k.Tasks()), len(admitted))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
