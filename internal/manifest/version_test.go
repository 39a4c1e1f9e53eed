package manifest

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseVersion(t *testing.T) {
	cases := []struct {
		in   string
		want Version
	}{
		{"1", Version{Major: 1}},
		{"1.2", Version{Major: 1, Minor: 2}},
		{"1.2.3", Version{Major: 1, Minor: 2, Micro: 3}},
		{"1.2.3.beta", Version{Major: 1, Minor: 2, Micro: 3, Qualifier: "beta"}},
		{" 3.2.1 ", Version{Major: 3, Minor: 2, Micro: 1}},
		{"0.0.0", Version{}},
	}
	for _, c := range cases {
		got, err := ParseVersion(c.in)
		if err != nil {
			t.Errorf("ParseVersion(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseVersion(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseVersionInvalid(t *testing.T) {
	for _, in := range []string{"", "a", "1.a", "1.2.x", "-1", "1.-2", "1.2.3."} {
		if _, err := ParseVersion(in); err == nil {
			t.Errorf("ParseVersion(%q) succeeded", in)
		}
	}
}

func TestMustParseVersionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustParseVersion("bogus")
}

func TestVersionCompare(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"1.0.0", "1.0.0", 0},
		{"1.0.0", "2.0.0", -1},
		{"2.0.0", "1.9.9", 1},
		{"1.1.0", "1.0.9", 1},
		{"1.0.1", "1.0.2", -1},
		{"1.0.0", "1.0.0.beta", -1},
		{"1.0.0.alpha", "1.0.0.beta", -1},
		{"1.0.0.rc1", "1.0.0.rc1", 0},
	}
	for _, c := range cases {
		a, b := MustParseVersion(c.a), MustParseVersion(c.b)
		if got := a.Compare(b); got != c.want {
			t.Errorf("Compare(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := b.Compare(a); got != -c.want {
			t.Errorf("Compare(%s,%s) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
}

func TestVersionString(t *testing.T) {
	if got := MustParseVersion("1.2").String(); got != "1.2.0" {
		t.Errorf("String = %q, want 1.2.0", got)
	}
	if got := MustParseVersion("1.2.3.q").String(); got != "1.2.3.q" {
		t.Errorf("String = %q", got)
	}
}

func TestParseRange(t *testing.T) {
	cases := []struct {
		in       string
		contains []string
		excludes []string
	}{
		{"", []string{"0.0.0", "99.0.0"}, nil},
		{"1.2", []string{"1.2.0", "2.0.0", "99.0.0"}, []string{"1.1.9", "0.5.0"}},
		{"[1.0,2.0)", []string{"1.0.0", "1.9.9"}, []string{"0.9.9", "2.0.0", "2.1.0"}},
		{"[1.0,2.0]", []string{"1.0.0", "2.0.0"}, []string{"2.0.1"}},
		{"(1.0,2.0)", []string{"1.0.1", "1.5.0"}, []string{"1.0.0", "2.0.0"}},
		{"[1.0,1.0]", []string{"1.0.0"}, []string{"1.0.1", "0.9.9"}},
	}
	for _, c := range cases {
		r, err := ParseRange(c.in)
		if err != nil {
			t.Errorf("ParseRange(%q): %v", c.in, err)
			continue
		}
		for _, v := range c.contains {
			if !r.Contains(MustParseVersion(v)) {
				t.Errorf("range %q should contain %s", c.in, v)
			}
		}
		for _, v := range c.excludes {
			if r.Contains(MustParseVersion(v)) {
				t.Errorf("range %q should exclude %s", c.in, v)
			}
		}
	}
}

func TestParseRangeInvalid(t *testing.T) {
	for _, in := range []string{"[1.0", "[1.0,2.0", "[2.0,1.0]", "(1.0,1.0)", "[1.0,1.0)", "[a,b]", "[1.0,2.0,3.0]", "["} {
		if _, err := ParseRange(in); err == nil {
			t.Errorf("ParseRange(%q) succeeded", in)
		}
	}
}

func TestRangeString(t *testing.T) {
	cases := []struct{ in, want string }{
		{"[1.0,2.0)", "[1.0.0,2.0.0)"},
		{"(1.0,2.0]", "(1.0.0,2.0.0]"},
		{"1.5", "1.5.0"},
		{"", "0.0.0"},
	}
	for _, c := range cases {
		r, err := ParseRange(c.in)
		if err != nil {
			t.Fatalf("ParseRange(%q): %v", c.in, err)
		}
		if got := r.String(); got != c.want {
			t.Errorf("Range(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

// Property: Compare is antisymmetric and consistent with Contains for
// single-version ranges.
func TestVersionCompareProperty(t *testing.T) {
	prop := func(a1, a2, a3, b1, b2, b3 uint8) bool {
		a := Version{Major: int(a1 % 8), Minor: int(a2 % 8), Micro: int(a3 % 8)}
		b := Version{Major: int(b1 % 8), Minor: int(b2 % 8), Micro: int(b3 % 8)}
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		exact := Range{Low: a, High: a, IncLow: true, IncHigh: true}
		return exact.Contains(b) == (a.Compare(b) == 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
