package ldap

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseValid(t *testing.T) {
	cases := []string{
		"(a=1)",
		"(objectClass=drcom.Management)",
		"(&(a=1)(b=2))",
		"(|(a=1)(b=2)(c=3))",
		"(!(enabled=false))",
		"(cn=*)",
		"(cn=ab*)",
		"(cn=*ab)",
		"(cn=a*b*c)",
		"(ranking>=5)",
		"(ranking<=5)",
		"(name~=Smart Camera)",
		"(&(|(a=1)(b=2))(!(c=3)))",
		"( a = 1 )",
		`(path=C:\\temp)`,
		`(desc=open \(paren\))`,
		`(glob=literal\*star)`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q) failed: %v", src, err)
		}
	}
}

func TestParseInvalid(t *testing.T) {
	cases := []string{
		"",
		"   ",
		"a=1",
		"(a=1",
		"(a=1))",
		"((a=1)",
		"(=1)",
		"(a)",
		"(a>1)", // bare > is not RFC 1960
		"(a<1)",
		"(&)",
		"(|)",
		"(!)",
		"(a=1)(b=2)",
		"(a=un(escaped)",
		`(a=\)`,
		"(a>=*)", // wildcard with ordering operator
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
		}
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse("(a=1")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T, want *SyntaxError", err)
	}
	if !strings.Contains(se.Error(), "(a=1") {
		t.Fatalf("error %q does not cite input", se.Error())
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse of invalid filter did not panic")
		}
	}()
	MustParse("(((")
}

func TestOpString(t *testing.T) {
	for _, o := range []Op{OpAnd, OpOr, OpNot, OpEqual, OpApprox, OpGreaterEq, OpLessEq, OpPresent, OpSubstring} {
		if strings.HasPrefix(o.String(), "Op(") {
			t.Errorf("missing String for op %d", int(o))
		}
	}
	if Op(99).String() != "Op(99)" {
		t.Error("unknown op String")
	}
}

func TestNilFilterMatchesAll(t *testing.T) {
	var f *Filter
	if !f.Matches(Properties{"a": 1}) {
		t.Fatal("nil filter did not match")
	}
}

func TestMatchBasics(t *testing.T) {
	props := Properties{
		"objectClass": "drcom.Management",
		"name":        "camera",
		"priority":    2,
		"cpuusage":    0.1,
		"enabled":     true,
		"tags":        []string{"rt", "video"},
	}
	cases := []struct {
		src  string
		want bool
	}{
		{"(objectClass=drcom.Management)", true},
		{"(objectClass=other)", false},
		{"(name=camera)", true},
		{"(NAME=camera)", true}, // case-insensitive attribute
		{"(name=Camera)", false},
		{"(name~=CAMERA)", true},
		{"(name~= ca mera )", true},
		{"(priority=2)", true},
		{"(priority=3)", false},
		{"(priority>=2)", true},
		{"(priority>=3)", false},
		{"(priority<=2)", true},
		{"(priority<=1)", false},
		{"(cpuusage=0.1)", true},
		{"(cpuusage<=0.5)", true},
		{"(cpuusage>=0.5)", false},
		{"(enabled=true)", true},
		{"(enabled=false)", false},
		{"(missing=1)", false},
		{"(name=*)", true},
		{"(missing=*)", false},
		{"(name=cam*)", true},
		{"(name=*era)", true},
		{"(name=c*m*a)", true},
		{"(name=x*)", false},
		{"(tags=rt)", true},
		{"(tags=video)", true},
		{"(tags=audio)", false},
		{"(&(name=camera)(priority>=1))", true},
		{"(&(name=camera)(priority>=9))", false},
		{"(|(name=nope)(priority=2))", true},
		{"(!(name=nope))", true},
		{"(!(name=camera))", false},
	}
	for _, c := range cases {
		f, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		if got := f.Matches(props); got != c.want {
			t.Errorf("%q matches = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestMatchEscapedLiterals(t *testing.T) {
	props := Properties{"glob": "a*b", "paren": "x(y)z"}
	if !MustParse(`(glob=a\*b)`).Matches(props) {
		t.Fatal("escaped star literal did not match")
	}
	if MustParse(`(glob=a\*c)`).Matches(props) {
		t.Fatal("wrong escaped literal matched")
	}
	if !MustParse(`(paren=x\(y\)z)`).Matches(props) {
		t.Fatal("escaped parens did not match")
	}
	if !MustParse(`(glob=*\**)`).Matches(props) {
		t.Fatal("substring with escaped star did not match")
	}
}

func TestMatchNumericTypes(t *testing.T) {
	props := Properties{
		"i32": int32(7),
		"i64": int64(-3),
		"u":   uint(4),
		"f32": float32(1.5),
		"ints": []int{
			1, 5, 9,
		},
	}
	cases := []struct {
		src  string
		want bool
	}{
		{"(i32=7)", true},
		{"(i32>=6)", true},
		{"(i64=-3)", true},
		{"(i64<=-3)", true},
		{"(u=4)", true},
		{"(f32=1.5)", true},
		{"(f32>=1.4)", true},
		{"(ints=5)", true},
		{"(ints=6)", false},
		{"(ints>=9)", true},
		{"(i32>=6.5)", true}, // float literal vs int value
	}
	for _, c := range cases {
		if got := MustParse(c.src).Matches(props); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestOrderOnStrings(t *testing.T) {
	props := Properties{"v": "m"}
	if !MustParse("(v>=a)").Matches(props) {
		t.Fatal("string >= failed")
	}
	if MustParse("(v>=z)").Matches(props) {
		t.Fatal("string >= matched wrongly")
	}
}

func TestOrderOnBoolFails(t *testing.T) {
	props := Properties{"b": true}
	if MustParse("(b>=true)").Matches(props) {
		t.Fatal("ordering on bool matched")
	}
}

func TestFilterStringRoundTrip(t *testing.T) {
	src := "(&(a=1)(b=2))"
	f := MustParse(src)
	if f.String() != src {
		t.Fatalf("String = %q, want %q", f.String(), src)
	}
	if f.Op() != OpAnd {
		t.Fatalf("Op = %v", f.Op())
	}
}

func TestSubstringMatchTable(t *testing.T) {
	cases := []struct {
		pattern string
		s       string
		want    bool
	}{
		{"a*", "abc", true},
		{"a*", "xbc", false},
		{"*c", "abc", true},
		{"*c", "abx", false},
		{"a*c", "abc", true},
		{"a*c", "ac", true},
		{"a*c", "abx", false},
		{"*b*", "abc", true},
		{"*b*", "axc", false},
		{"a*b*c", "aXbYc", true},
		{"a*b*c", "acb", false},
		{"**", "anything", true},
	}
	for _, c := range cases {
		f := MustParse("(v=" + c.pattern + ")")
		got := f.Matches(Properties{"v": c.s})
		if got != c.want {
			t.Errorf("pattern %q vs %q = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

// Property: a parsed filter's String re-parses to a filter with identical
// match behaviour on a fixed probe set.
func TestParseStringStable(t *testing.T) {
	probes := []Properties{
		{"a": "x"}, {"a": "1", "b": "2"}, {"c": 3}, {},
	}
	seeds := []string{
		"(a=x)", "(&(a=1)(b=2))", "(|(a=*)(c>=2))", "(!(a=x))", "(a=x*y)",
	}
	for _, src := range seeds {
		f1 := MustParse(src)
		f2, err := Parse(f1.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", f1.String(), err)
		}
		for _, p := range probes {
			if f1.Matches(p) != f2.Matches(p) {
				t.Fatalf("filter %q: reparse changed semantics on %v", src, p)
			}
		}
	}
}

// Property: matching never panics on arbitrary string props.
func TestMatchNeverPanics(t *testing.T) {
	f := MustParse("(&(a=*x*)(n>=10)(!(b~=Y)))")
	prop := func(a, b string, n int16) bool {
		props := Properties{"a": a, "b": b, "n": int(n)}
		_ = f.Matches(props)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parse never panics on arbitrary input; it either returns a
// filter or an error.
func TestParseNeverPanics(t *testing.T) {
	prop := func(s string) bool {
		f, err := Parse(s)
		if err != nil {
			return f == nil
		}
		// Whatever parsed must also match safely.
		_ = f.Matches(Properties{"a": "b", "n": 1})
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: parseable filters built from random pieces round-trip through
// String with stable semantics.
func TestStructuredFilterNeverPanics(t *testing.T) {
	prop := func(attr string, val string, op uint8) bool {
		if attr == "" {
			return true
		}
		ops := []string{"=", "~=", ">=", "<="}
		src := "(" + attr + ops[int(op)%len(ops)] + val + ")"
		f, err := Parse(src)
		if err != nil {
			return true // plenty of random strings are invalid; fine
		}
		_ = f.Matches(Properties{attr: val})
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
