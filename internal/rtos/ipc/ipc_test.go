package ipc

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValidName(t *testing.T) {
	cases := []struct {
		name string
		want bool
	}{
		{"a", true}, {"camera", true}, {"abcdef", true},
		{"", false}, {"toolong", false},
	}
	for _, c := range cases {
		if got := ValidName(c.name); got != c.want {
			t.Errorf("ValidName(%q) = %v", c.name, got)
		}
	}
}

func TestElemType(t *testing.T) {
	if Integer.Size() != 4 || Byte.Size() != 1 {
		t.Fatal("element sizes wrong")
	}
	if Integer.String() != "Integer" || Byte.String() != "Byte" {
		t.Fatal("element strings wrong")
	}
	if ElemType(0).Size() != 0 {
		t.Fatal("invalid type has size")
	}
	for _, s := range []string{"Integer", "integer", "Byte", "BYTE"} {
		if _, err := ParseElemType(s); err != nil {
			t.Errorf("ParseElemType(%q): %v", s, err)
		}
	}
	if _, err := ParseElemType("Float"); err == nil {
		t.Error("ParseElemType(Float) succeeded")
	}
}

func TestSHMCreateLookupDelete(t *testing.T) {
	var r Registry
	s, err := r.CreateSHM("images", Byte, 400)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "images" || s.Type() != Byte || s.Len() != 400 {
		t.Fatalf("segment = %s %v %d", s.Name(), s.Type(), s.Len())
	}
	if s.SizeBytes() != 400 {
		t.Fatalf("SizeBytes = %d", s.SizeBytes())
	}
	got, err := r.SHM("images")
	if err != nil || got != s {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	if _, err := r.CreateSHM("images", Byte, 1); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := r.DeleteSHM("images"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SHM("images"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup after delete: %v", err)
	}
	if err := r.DeleteSHM("images"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestSHMCreateValidation(t *testing.T) {
	var r Registry
	if _, err := r.CreateSHM("toolong7", Byte, 1); !errors.Is(err, ErrBadName) {
		t.Fatalf("long name: %v", err)
	}
	if _, err := r.CreateSHM("ok", ElemType(99), 1); err == nil {
		t.Fatal("bad type accepted")
	}
	if _, err := r.CreateSHM("ok", Byte, 0); err == nil {
		t.Fatal("zero size accepted")
	}
}

func TestSHMIntegerSizeBytes(t *testing.T) {
	var r Registry
	s, err := r.CreateSHM("xysize", Integer, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s.SizeBytes() != 400 {
		t.Fatalf("SizeBytes = %d, want 400", s.SizeBytes())
	}
}

func TestSHMReadWrite(t *testing.T) {
	var r Registry
	s, _ := r.CreateSHM("data", Integer, 4)
	if err := s.Set(0, 42); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get(0); err != nil || v != 42 {
		t.Fatalf("Get = %d, %v", v, err)
	}
	if err := s.Set(4, 1); !errors.Is(err, ErrBadBounds) {
		t.Fatalf("oob Set: %v", err)
	}
	if _, err := s.Get(-1); !errors.Is(err, ErrBadBounds) {
		t.Fatalf("oob Get: %v", err)
	}
	if err := s.WriteAll([]int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got := s.ReadAll()
	if got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 0 {
		t.Fatalf("ReadAll = %v", got)
	}
	if err := s.WriteAll(make([]int64, 5)); !errors.Is(err, ErrBadBounds) {
		t.Fatalf("oversize WriteAll: %v", err)
	}
	// ReadAll returns a copy.
	got[0] = 99
	if v, _ := s.Get(0); v != 1 {
		t.Fatal("ReadAll aliased storage")
	}
}

func TestSHMGeneration(t *testing.T) {
	var r Registry
	s, _ := r.CreateSHM("g", Byte, 1)
	g0 := s.Generation()
	if err := s.Set(0, 1); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != g0+1 {
		t.Fatal("generation not bumped by Set")
	}
	if err := s.WriteAll([]int64{2}); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != g0+2 {
		t.Fatal("generation not bumped by WriteAll")
	}
}

func TestSHMClamping(t *testing.T) {
	var r Registry
	b, _ := r.CreateSHM("bytes", Byte, 1)
	if err := b.Set(0, 300); err != nil {
		t.Fatal(err)
	}
	if v, _ := b.Get(0); v != 44 { // 300 mod 256
		t.Fatalf("byte clamp = %d, want 44", v)
	}
	i, _ := r.CreateSHM("ints", Integer, 1)
	if err := i.Set(0, int64(1)<<40); err != nil {
		t.Fatal(err)
	}
	if v, _ := i.Get(0); v != 0 {
		t.Fatalf("int32 clamp = %d, want 0", v)
	}
}

func TestMailboxFIFO(t *testing.T) {
	var r Registry
	m, err := r.CreateMailbox("cmds", 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "cmds" || m.Cap() != 2 {
		t.Fatalf("box = %s/%d", m.Name(), m.Cap())
	}
	if err := m.Send([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := m.Send([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := m.Send([]byte("three")); !errors.Is(err, ErrFull) {
		t.Fatalf("overfull Send: %v", err)
	}
	got, err := m.Receive()
	if err != nil || string(got) != "one" {
		t.Fatalf("Receive = %q, %v", got, err)
	}
	got, _ = m.Receive()
	if string(got) != "two" {
		t.Fatalf("Receive2 = %q", got)
	}
	if _, err := m.Receive(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty Receive: %v", err)
	}
	sent, received, dropped := m.Stats()
	if sent != 2 || received != 2 || dropped != 1 {
		t.Fatalf("stats = %d/%d/%d", sent, received, dropped)
	}
}

func TestMailboxMessageCopied(t *testing.T) {
	var r Registry
	m, _ := r.CreateMailbox("c", 1)
	buf := []byte("abc")
	if err := m.Send(buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'z'
	got, _ := m.Receive()
	if string(got) != "abc" {
		t.Fatalf("message aliased sender buffer: %q", got)
	}
}

func TestMailboxValidation(t *testing.T) {
	var r Registry
	if _, err := r.CreateMailbox("", 1); !errors.Is(err, ErrBadName) {
		t.Fatalf("empty name: %v", err)
	}
	if _, err := r.CreateMailbox("x", 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := r.CreateMailbox("x", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateMailbox("x", 1); !errors.Is(err, ErrExists) {
		t.Fatalf("dup: %v", err)
	}
	if err := r.DeleteMailbox("x"); err != nil {
		t.Fatal(err)
	}
	if err := r.DeleteMailbox("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := r.Mailbox("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup: %v", err)
	}
}

func TestRegistryNames(t *testing.T) {
	var r Registry
	if _, err := r.CreateSHM("bbb", Byte, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateSHM("aaa", Byte, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateMailbox("mmm", 1); err != nil {
		t.Fatal(err)
	}
	shms, boxes := r.Names()
	if len(shms) != 2 || shms[0] != "aaa" || shms[1] != "bbb" {
		t.Fatalf("shms = %v", shms)
	}
	if len(boxes) != 1 || boxes[0] != "mmm" {
		t.Fatalf("boxes = %v", boxes)
	}
}

// Property: mailbox never exceeds its capacity and preserves FIFO order.
func TestMailboxProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		var r Registry
		m, err := r.CreateMailbox("p", 4)
		if err != nil {
			return false
		}
		next := byte(0)
		var expect []byte
		for _, isSend := range ops {
			if isSend {
				if err := m.Send([]byte{next}); err == nil {
					expect = append(expect, next)
				} else if len(expect) != 4 {
					return false // ErrFull only at capacity
				}
				next++
			} else {
				got, err := m.Receive()
				if err != nil {
					if len(expect) != 0 {
						return false
					}
					continue
				}
				if len(expect) == 0 || got[0] != expect[0] {
					return false
				}
				expect = expect[1:]
			}
			if m.Len() != len(expect) || m.Len() > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
