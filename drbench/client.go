package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one call the benchmark made into a layer's public function.
// Start and End are host nanoseconds since the tracer's epoch; Parent is
// the index of the enclosing span (-1 for a root) and Op numbers the
// client operation the call belongs to (0 for set-up and slices).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// tracer keeps spans in memory; a nil tracer records nothing, which is
// how the untraced runs measure end-to-end numbers.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32 // stack of enclosing span indices
	op    int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// do runs f inside a span named name. Name is "<layer>.<call>".
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, idx)
	f()
	t.open = t.open[:len(t.open)-1]
	t.spans[idx].End = int64(time.Since(t.epoch))
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// window selects the spans that start inside [from, to].
func window(spans []span, from, to int64) []span {
	var out []span
	for _, s := range spans {
		if s.Start >= from && s.End <= to {
			out = append(out, s)
		}
	}
	return out
}

// durations lists the host durations of the spans with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// dump writes the spans as JSON lines under dir; the file name carries
// the workload and seed.
func (t *tracer) dump(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// client is the single closed-loop caller: it issues one call, waits for
// it to return, times it, and only then issues the next.
type client struct {
	tr        *tracer
	writes    []float64 // host ns per reconfiguration write
	reads     []float64 // host ns per management read
	attempted int
	failed    int
	errs      map[string]int // error text prefix → count, for the report
}

func newClient(tr *tracer) *client { return &client{tr: tr, errs: map[string]int{}} }

// write issues one reconfiguration write. f may make several layer calls
// (the traced deploy parses, then deploys); the op span covers them all.
func (c *client) write(verb string, f func() error) {
	c.call(verb, &c.writes, f)
}

// read issues one management read.
func (c *client) read(verb string, f func() error) {
	c.call(verb, &c.reads, f)
}

func (c *client) call(verb string, into *[]float64, f func() error) {
	c.attempted++
	if c.tr != nil {
		c.tr.op++
	}
	var err error
	name, g := "op."+verb, func() { err = f() }
	start := time.Now()
	c.tr.do(name, g)
	*into = append(*into, float64(time.Since(start)))
	if err != nil {
		c.failed++
		// Digits name components; masking them groups errors by kind.
		msg := strings.Map(func(r rune) rune {
			if r >= '0' && r <= '9' {
				return '#'
			}
			return r
		}, err.Error())
		c.errs[verb+": "+msg]++
	}
}

// errSummary renders the error tally in a stable order.
func (c *client) errSummary() string {
	keys := make([]string, 0, len(c.errs))
	for k := range c.errs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "  %6d  %s\n", c.errs[k], k)
	}
	return b.String()
}
