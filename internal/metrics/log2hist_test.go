package metrics

import (
	"sync"
	"testing"
)

func TestLog2HistBuckets(t *testing.T) {
	var h Log2Hist
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(4)
	h.Observe(-5) // clamps to 0
	if got := h.Bucket(0); got != 2 {
		t.Fatalf("bucket 0 = %d, want 2 (zero + clamped negative)", got)
	}
	if got := h.Bucket(1); got != 1 {
		t.Fatalf("bucket 1 = %d, want 1", got)
	}
	if got := h.Bucket(2); got != 2 {
		t.Fatalf("bucket 2 = %d, want 2 (samples 2,3)", got)
	}
	if got := h.Bucket(3); got != 1 {
		t.Fatalf("bucket 3 = %d, want 1 (sample 4)", got)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Max() != 4 {
		t.Fatalf("max = %d, want 4", h.Max())
	}
}

func TestLog2HistQuantile(t *testing.T) {
	var h Log2Hist
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	// 100 samples of 100ns, 10 of 10000ns.
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10000)
	}
	p50 := h.Quantile(0.50)
	if p50 < 100 || p50 > 128 {
		t.Fatalf("p50 = %d, want within [100,128] (bucket upper bound)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 10000 || p99 > 16384 {
		t.Fatalf("p99 = %d, want within [10000,16384]", p99)
	}
	if h.Quantile(1) != 10000 {
		t.Fatalf("p100 = %d, want clamp to max 10000", h.Quantile(1))
	}
}

func TestLog2HistQuantileOrderIndependent(t *testing.T) {
	var a, b Log2Hist
	samples := []int64{5, 900, 42, 7, 7, 123456, 1, 0, 31}
	for _, v := range samples {
		a.Observe(v)
	}
	for i := len(samples) - 1; i >= 0; i-- {
		b.Observe(samples[i])
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("q=%v: %d vs %d (order-dependent)", q, a.Quantile(q), b.Quantile(q))
		}
	}
}

func TestLog2HistMerge(t *testing.T) {
	var a, b Log2Hist
	a.Observe(10)
	a.Observe(20)
	b.Observe(5000)
	a.Merge(&b)
	a.Merge(nil)
	if a.Count() != 3 {
		t.Fatalf("merged count = %d, want 3", a.Count())
	}
	if a.Max() != 5000 {
		t.Fatalf("merged max = %d, want 5000", a.Max())
	}
}

// TestLog2HistConcurrentObserve records from several goroutines while
// another reads; under -race it pins that neither side needs a lock,
// and the final counts must be exact.
func TestLog2HistConcurrentObserve(t *testing.T) {
	const writers, per = 4, 5000
	var h Log2Hist
	var wg sync.WaitGroup
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Quantile(0.99)
				_ = h.Count()
				_ = h.Snapshot()
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-done
	if got := h.Count(); got != writers*per {
		t.Fatalf("count = %d, want %d", got, writers*per)
	}
	if got := h.Max(); got != writers*per-1 {
		t.Fatalf("max = %d, want %d", got, writers*per-1)
	}
}

func TestLog2HistObserveAllocFree(t *testing.T) {
	var h Log2Hist
	v := int64(1234)
	if avg := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		v += 17
	}); avg > 0.001 {
		t.Fatalf("Observe allocates %v/op, want <= 0.001", avg)
	}
}

// The samples cycle below a fixed maximum, as latencies do once the
// worst case has been seen: the record path is the bucket add alone.
func BenchmarkLog2HistObserve(b *testing.B) {
	var h Log2Hist
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 0xfff))
	}
}

func BenchmarkLog2HistObserveParallel(b *testing.B) {
	var h Log2Hist
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(int64(i & 0xfff))
			i++
		}
	})
}
