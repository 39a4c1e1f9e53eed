package ipc

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSemaphoreLifecycle(t *testing.T) {
	var r Registry
	s, err := r.CreateSemaphore("mutex", 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "mutex" || s.Value() != 1 {
		t.Fatalf("sem = %s/%d", s.Name(), s.Value())
	}
	got, err := r.Semaphore("mutex")
	if err != nil || got != s {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	if _, err := r.CreateSemaphore("mutex", 1); !errors.Is(err, ErrExists) {
		t.Fatalf("dup: %v", err)
	}
	if err := r.DeleteSemaphore("mutex"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Semaphore("mutex"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
	if err := r.DeleteSemaphore("mutex"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestSemaphoreValidation(t *testing.T) {
	var r Registry
	if _, err := r.CreateSemaphore("toolong7", 1); !errors.Is(err, ErrBadName) {
		t.Fatalf("name: %v", err)
	}
	if _, err := r.CreateSemaphore("s", 0); err == nil {
		t.Fatal("zero count accepted")
	}
}

func TestSemaphoreTryAcquireRelease(t *testing.T) {
	var r Registry
	s, _ := r.CreateSemaphore("pool", 2)
	if !s.TryAcquire() || !s.TryAcquire() {
		t.Fatal("initial acquires failed")
	}
	if s.TryAcquire() {
		t.Fatal("over-acquire succeeded")
	}
	if s.Value() != 0 {
		t.Fatalf("value = %d", s.Value())
	}
	s.Release()
	if !s.TryAcquire() {
		t.Fatal("acquire after release failed")
	}
	acq, cont := s.Stats()
	if acq != 3 || cont != 1 {
		t.Fatalf("stats = %d/%d", acq, cont)
	}
}

func TestSemaphoreReleaseCapped(t *testing.T) {
	var r Registry
	s, _ := r.CreateSemaphore("bin", 1)
	s.Release()
	s.Release() // double release must not mint permits
	if s.Value() != 1 {
		t.Fatalf("value = %d, want capped at 1", s.Value())
	}
}

// Property: the count never leaves [0, max] under any operation sequence.
func TestSemaphoreBoundsProperty(t *testing.T) {
	prop := func(ops []bool, max uint8) bool {
		m := int(max%4) + 1
		var r Registry
		s, err := r.CreateSemaphore("p", m)
		if err != nil {
			return false
		}
		for _, acquire := range ops {
			if acquire {
				s.TryAcquire()
			} else {
				s.Release()
			}
			if v := s.Value(); v < 0 || v > m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
