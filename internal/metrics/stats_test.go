package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptySeries(t *testing.T) {
	var s Series
	if s.Len() != 0 || s.Mean() != 0 || s.AveDev() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty series statistics not all zero")
	}
	if s.Percentile(50) != 0 {
		t.Fatal("empty percentile not zero")
	}
}

func TestSeriesBasicStats(t *testing.T) {
	var s Series
	s.AddAll([]Sample{1, 2, 3, 4, 5})
	if got := s.Mean(); got != 3 {
		t.Fatalf("Mean = %v, want 3", got)
	}
	// AVEDEV of 1..5 = (2+1+0+1+2)/5 = 1.2
	if got := s.AveDev(); math.Abs(got-1.2) > 1e-12 {
		t.Fatalf("AveDev = %v, want 1.2", got)
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("Min/Max = %d/%d, want 1/5", s.Min(), s.Max())
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestSeriesNegativeValues(t *testing.T) {
	var s Series
	s.AddAll([]Sample{-25436, -633, 23798})
	if s.Min() != -25436 {
		t.Fatalf("Min = %d", s.Min())
	}
	if s.Max() != 23798 {
		t.Fatalf("Max = %d", s.Max())
	}
	wantMean := float64(-25436-633+23798) / 3
	if got := s.Mean(); math.Abs(got-wantMean) > 1e-9 {
		t.Fatalf("Mean = %v, want %v", got, wantMean)
	}
}

func TestStdDev(t *testing.T) {
	var s Series
	s.AddAll([]Sample{2, 4, 4, 4, 5, 5, 7, 9})
	if got := s.StdDev(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestPercentile(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s.Add(Sample(i))
	}
	cases := []struct {
		p    float64
		want Sample
	}{
		{0, 1}, {1, 1}, {50, 50}, {99, 99}, {100, 100}, {-5, 1}, {150, 100},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestSamplesCopy(t *testing.T) {
	var s Series
	s.AddAll([]Sample{1, 2, 3})
	got := s.Samples()
	got[0] = 99
	if s.Samples()[0] != 1 {
		t.Fatal("Samples did not return a copy")
	}
}

func TestReset(t *testing.T) {
	var s Series
	s.AddAll([]Sample{5, 6})
	s.Reset()
	if s.Len() != 0 || s.Mean() != 0 || s.Min() != 0 {
		t.Fatal("Reset did not clear series")
	}
	s.Add(-7)
	if s.Min() != -7 || s.Max() != -7 {
		t.Fatal("series unusable after Reset")
	}
}

func TestRowAndFormatTable(t *testing.T) {
	var s Series
	s.AddAll([]Sample{-10, 0, 10})
	row := s.Row("HRC (light)")
	if row.Label != "HRC (light)" || row.N != 3 || row.Min != -10 || row.Max != 10 {
		t.Fatalf("Row = %+v", row)
	}
	out := FormatTable("Table 1 Latency Test", []Row{row})
	for _, want := range []string{"Table 1", "AVERAGE", "AVEDEV", "MIN", "MAX", "HRC (light)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatTable output missing %q:\n%s", want, out)
		}
	}
}

// Property: AveDev is non-negative and never exceeds max-min; Min <= Mean
// <= Max.
func TestSeriesInvariants(t *testing.T) {
	prop := func(vals []int32) bool {
		if len(vals) == 0 {
			return true
		}
		var s Series
		for _, v := range vals {
			s.Add(Sample(v))
		}
		mean := s.Mean()
		if mean < float64(s.Min())-1e-9 || mean > float64(s.Max())+1e-9 {
			return false
		}
		ad := s.AveDev()
		return ad >= 0 && ad <= float64(s.Max()-s.Min())+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: AveDev <= StdDev for any sample set (Jensen's inequality).
func TestAveDevLEStdDev(t *testing.T) {
	prop := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		var s Series
		for _, v := range vals {
			s.Add(Sample(v))
		}
		return s.AveDev() <= s.StdDev()+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
