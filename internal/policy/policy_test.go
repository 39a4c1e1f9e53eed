package policy

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func ct(name string, cpuID int, prio int, usage float64, period time.Duration) Contract {
	return Contract{Name: name, CPU: cpuID, Priority: prio, CPUUsage: usage, Period: period}
}

func TestContractCost(t *testing.T) {
	c := ct("x", 0, 1, 0.25, 100*time.Millisecond)
	if got := c.Cost(); got != 25*time.Millisecond {
		t.Fatalf("Cost = %v", got)
	}
	ap := ct("y", 0, 1, 0.25, 0)
	if ap.Cost() != 0 {
		t.Fatal("aperiodic cost not 0")
	}
}

func TestViewOnCPU(t *testing.T) {
	v := NewView(2, []Contract{
		ct("a", 0, 1, 0.1, time.Second),
		ct("b", 1, 1, 0.2, time.Second),
		ct("c", 0, 2, 0.3, time.Second),
	})
	if got := len(v.OnCPU(0)); got != 2 {
		t.Fatalf("OnCPU(0) = %d", got)
	}
	if got := len(v.OnCPU(1)); got != 1 {
		t.Fatalf("OnCPU(1) = %d", got)
	}
	if got := len(v.OnCPU(5)); got != 0 {
		t.Fatalf("OnCPU(5) = %d", got)
	}
}

func TestUtilizationAdmission(t *testing.T) {
	u := Utilization{} // default bound 1.0
	view := NewView(1, []Contract{
		ct("a", 0, 1, 0.5, time.Second),
	})
	if d := u.Admit(view, ct("b", 0, 2, 0.4, time.Second)); !d.Admit {
		t.Fatalf("0.9 total denied: %s", d.Reason)
	}
	if d := u.Admit(view, ct("b", 0, 2, 0.6, time.Second)); d.Admit {
		t.Fatalf("1.1 total admitted: %s", d.Reason)
	}
	// Exactly at the bound is admitted.
	if d := u.Admit(view, ct("b", 0, 2, 0.5, time.Second)); !d.Admit {
		t.Fatalf("1.0 exact denied: %s", d.Reason)
	}
}

func TestUtilizationPerCPU(t *testing.T) {
	u := Utilization{}
	view := NewView(2, []Contract{
		ct("a", 0, 1, 0.9, time.Second),
	})
	// CPU 1 is free even though CPU 0 is nearly full.
	if d := u.Admit(view, ct("b", 1, 1, 0.9, time.Second)); !d.Admit {
		t.Fatalf("other CPU denied: %s", d.Reason)
	}
	if d := u.Admit(view, ct("b", 0, 1, 0.2, time.Second)); d.Admit {
		t.Fatalf("overloaded CPU admitted: %s", d.Reason)
	}
}

func TestUtilizationCustomBound(t *testing.T) {
	u := Utilization{Bound: 0.69} // RMA-ish guard band
	view := View{NumCPUs: 1}
	if d := u.Admit(view, ct("a", 0, 1, 0.5, time.Second)); !d.Admit {
		t.Fatal("0.5 denied under 0.69 bound")
	}
	if d := u.Admit(view, ct("a", 0, 1, 0.7, time.Second)); d.Admit {
		t.Fatal("0.7 admitted under 0.69 bound")
	}
}

func TestRMAClassicSchedulableSet(t *testing.T) {
	// Liu & Layland classic: three tasks, U = 0.2+0.2+0.2 = 0.6 — trivially
	// schedulable under RMA.
	r := RMA{}
	view := NewView(1, []Contract{
		ct("t1", 0, 1, 0.2, 10*time.Millisecond),
		ct("t2", 0, 2, 0.2, 20*time.Millisecond),
	})
	if d := r.Admit(view, ct("t3", 0, 3, 0.2, 50*time.Millisecond)); !d.Admit {
		t.Fatalf("schedulable set denied: %s", d.Reason)
	}
}

func TestRMAUnschedulableSet(t *testing.T) {
	// Total utilization 1.1 on one CPU can never be schedulable.
	r := RMA{}
	view := NewView(1, []Contract{
		ct("t1", 0, 1, 0.6, 10*time.Millisecond),
	})
	if d := r.Admit(view, ct("t2", 0, 2, 0.5, 14*time.Millisecond)); d.Admit {
		t.Fatalf("overloaded set admitted: %s", d.Reason)
	}
}

func TestRMATightButSchedulable(t *testing.T) {
	// U ≈ 0.83 > Liu-Layland bound for 2 tasks (0.828) but exact analysis
	// proves it schedulable: C1=2,T1=4 (prio 1); C2=2,T2=6 (prio 2).
	// R2 = 2 + ceil(R2/4)*2 → R2 = 6 ≤ 6.
	r := RMA{}
	view := NewView(1, []Contract{
		ct("t1", 0, 1, 0.5, 4*time.Millisecond),
	})
	d := r.Admit(view, ct("t2", 0, 2, 2.0/6.0, 6*time.Millisecond))
	if !d.Admit {
		t.Fatalf("exact-analysis schedulable set denied: %s", d.Reason)
	}
}

func TestRMARespectsDeclaredPriorityNotRate(t *testing.T) {
	// Priority inversion declared on purpose: long-period task has the
	// higher priority. C_long=5,T_long=10 at prio 1; C_short=2,T_short=4 at
	// prio 2. R_short = 2 + 5 = 7 > 4 → unschedulable with these
	// priorities (rate-monotonic assignment would have worked).
	r := RMA{}
	view := NewView(1, []Contract{
		ct("long", 0, 1, 0.5, 10*time.Millisecond),
	})
	if d := r.Admit(view, ct("short", 0, 2, 0.5, 4*time.Millisecond)); d.Admit {
		t.Fatalf("declared-priority inversion admitted: %s", d.Reason)
	}
}

func TestRMAIgnoresAperiodicAndOtherCPUs(t *testing.T) {
	r := RMA{}
	view := NewView(2, []Contract{
		ct("ap", 0, 0, 0, 0),                        // aperiodic: no cost
		ct("other", 1, 0, 0.9, 10*time.Millisecond), // other CPU
	})
	if d := r.Admit(view, ct("t", 0, 1, 0.9, 10*time.Millisecond)); !d.Admit {
		t.Fatalf("denied: %s", d.Reason)
	}
}

func TestEDFDensityBound(t *testing.T) {
	e := EDF{}
	view := NewView(1, []Contract{
		ct("a", 0, 1, 0.6, 10*time.Millisecond),
	})
	// EDF admits up to density exactly 1 (where RMA's fixed priorities may
	// fail).
	if d := e.Admit(view, ct("b", 0, 2, 0.4, 7*time.Millisecond)); !d.Admit {
		t.Fatalf("density 1.0 denied: %s", d.Reason)
	}
	if d := e.Admit(view, ct("b", 0, 2, 0.41, 7*time.Millisecond)); d.Admit {
		t.Fatalf("density 1.01 admitted: %s", d.Reason)
	}
}

func TestEDFAdmitsWhereRMADenies(t *testing.T) {
	// U = 1.0 with fixed priorities fails exact RMA analysis here, but EDF
	// admits: the crossover the resolver ablation bench demonstrates.
	view := NewView(1, []Contract{
		ct("t1", 0, 1, 0.5, 4*time.Millisecond),
	})
	cand := ct("t2", 0, 2, 0.5, 6*time.Millisecond)
	if d := (RMA{}).Admit(view, cand); d.Admit {
		t.Fatalf("RMA admitted density-1.0 set: %s", d.Reason)
	}
	if d := (EDF{}).Admit(view, cand); !d.Admit {
		t.Fatalf("EDF denied density-1.0 set: %s", d.Reason)
	}
}

func TestChain(t *testing.T) {
	view := View{NumCPUs: 1}
	cand := ct("c", 0, 1, 0.5, time.Second)
	ok := Chain{Utilization{}, Static{AdmitAll: true}}
	if d := ok.Admit(view, cand); !d.Admit {
		t.Fatalf("chain denied: %s", d.Reason)
	}
	mixed := Chain{Utilization{}, Static{AdmitAll: false}}
	d := mixed.Admit(view, cand)
	if d.Admit {
		t.Fatal("chain with denier admitted")
	}
	if !strings.Contains(d.Reason, "always-deny") {
		t.Fatalf("reason %q does not name the denier", d.Reason)
	}
	if !strings.Contains(ok.Name(), "utilization") {
		t.Fatalf("chain name = %q", ok.Name())
	}
}

func TestStaticAndFunc(t *testing.T) {
	if !(Static{AdmitAll: true}).Admit(View{}, Contract{}).Admit {
		t.Fatal("static admit broken")
	}
	if (Static{}).Admit(View{}, Contract{}).Admit {
		t.Fatal("static deny broken")
	}
	if (Static{Label: "custom"}).Name() != "custom" {
		t.Fatal("label ignored")
	}
	f := Func{Label: "odd-only", F: func(v View, c Contract) Decision {
		if c.Priority%2 == 1 {
			return Decision{Admit: true}
		}
		return Decision{Admit: false, Reason: "even priority"}
	}}
	if !f.Admit(View{}, ct("a", 0, 1, 0, 0)).Admit {
		t.Fatal("func admit broken")
	}
	if f.Admit(View{}, ct("a", 0, 2, 0, 0)).Admit {
		t.Fatal("func deny broken")
	}
	if f.Name() != "odd-only" {
		t.Fatal("func name broken")
	}
}

// Property: RMA is never more permissive than EDF (fixed-priority
// schedulability implies density ≤ 1 for implicit deadlines), and
// utilization-1.0 equals EDF on identical inputs.
func TestResolverDominanceProperty(t *testing.T) {
	prop := func(us [4]uint8, ps [4]uint8) bool {
		view := NewView(1, nil)
		var admitted []Contract
		var cands []Contract
		for i := 0; i < 4; i++ {
			u := float64(us[i]%60) / 100 // 0..0.59
			period := time.Duration(1+ps[i]%20) * time.Millisecond
			cands = append(cands, ct(string(rune('a'+i)), 0, i, u, period))
		}
		// Dominance must hold pointwise on a shared view: grow the view
		// only with contracts both policies accept.
		for _, c := range cands {
			rmaOK := RMA{}.Admit(view, c).Admit
			edfOK := EDF{}.Admit(view, c).Admit
			if rmaOK && !edfOK {
				return false // FP-schedulable implies density ≤ 1
			}
			if rmaOK && edfOK {
				admitted = append(admitted, c)
				view = NewView(1, admitted)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
