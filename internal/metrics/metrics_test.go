package metrics

import (
	"bytes"
	"testing"
)

func TestNilRegistryIsSafeAndFree(t *testing.T) {
	var r *Registry
	c := r.Counter("x", 0)
	g := r.Gauge("x", 0)
	h := r.Histogram("x", 0)
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil instruments, got %v %v %v", c, g, h)
	}
	// Every method must be a no-op on nil, not a panic.
	c.Inc()
	c.Add(5)
	g.Set(9)
	h.Observe(123)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("nil histogram statistics must read as zero")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	var buf bytes.Buffer
	s.Render(&buf) // must not panic
}

// TestNilInstrumentsAllocateNothing pins the disabled-metrics cost on a
// hot path: no allocation per operation.
func TestNilInstrumentsAllocateNothing(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		h.Observe(42)
	})
	if allocs != 0 {
		t.Fatalf("nil instrument ops allocated %.1f times per run, want 0", allocs)
	}
}

// TestLiveInstrumentsAllocateNothing pins the enabled cost after
// creation: updates never allocate either.
func TestLiveInstrumentsAllocateNothing(t *testing.T) {
	r := New()
	c := r.Counter("c", 0)
	g := r.Gauge("g", 0)
	h := r.Histogram("h", 0)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(9)
		h.Observe(17)
	})
	if allocs != 0 {
		t.Fatalf("live instrument updates allocated %.1f times per run, want 0", allocs)
	}
}

func TestBucketLayout(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 46, 47}, {1 << 50, 47}, {1<<62 + 1, 47},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every positive value must land inside its bucket's bounds.
	for _, v := range []int64{1, 2, 5, 100, 4096, 1 << 40} {
		b := bucketOf(v)
		lo, hi := BucketBounds(b)
		if v < lo || (hi >= 0 && v >= hi) {
			t.Errorf("value %d outside bucket %d bounds [%d,%d)", v, b, lo, hi)
		}
	}
}

func TestHistogramStatistics(t *testing.T) {
	r := New()
	h := r.Histogram("lat", 2)
	for _, v := range []int64{100, 200, 400, 800} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 1500 || h.Min() != 100 || h.Max() != 800 {
		t.Fatalf("stats: count=%d sum=%d min=%d max=%d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	if m := h.Mean(); m != 375 {
		t.Fatalf("mean = %v, want 375", m)
	}
	if q := h.Quantile(1.0); q != 800 {
		t.Fatalf("q100 = %d, want the max 800", q)
	}
	if q0 := h.Quantile(0); q0 <= 0 {
		t.Fatalf("q0 = %d, want a positive bucket bound", q0)
	}
	// Quantile must be monotone in q.
	prev := int64(0)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %d < %d", q, v, prev)
		}
		prev = v
	}
}

// simulate is a stand-in workload: a fixed sequence of instrument
// updates, as a deterministic simulation run would produce.
func simulate(r *Registry) {
	for node := 0; node < 3; node++ {
		c := r.Counter("ring.packets_injected", node)
		h := r.Histogram("bbp.msg_size_bytes", node)
		g := r.Gauge("mpi.unexpected_depth", node)
		for i := 0; i < 50; i++ {
			c.Inc()
			h.Observe(int64(i * i))
			g.Set(int64(i % 7))
		}
	}
	r.Counter("fault.injected_events", NodeGlobal).Add(3)
}

// TestSnapshotDeterminism is the two-identical-runs guarantee: same
// workload, two registries, byte-identical renderings.
func TestSnapshotDeterminism(t *testing.T) {
	r1, r2 := New(), New()
	simulate(r1)
	simulate(r2)
	var b1, b2 bytes.Buffer
	r1.Snapshot().Render(&b1)
	r2.Snapshot().Render(&b2)
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("two identical runs rendered differently:\n%s\n---\n%s", b1.String(), b2.String())
	}
	// And rendering the same registry twice must also be stable (no
	// map-order leakage inside Snapshot).
	var b3 bytes.Buffer
	r1.Snapshot().Render(&b3)
	if !bytes.Equal(b1.Bytes(), b3.Bytes()) {
		t.Fatal("re-snapshotting the same registry rendered differently")
	}
}

func TestSnapshotLookupAndSortOrder(t *testing.T) {
	r := New()
	r.Counter("b", 1).Add(10)
	r.Counter("a", 2).Add(20)
	r.Counter("a", 0).Add(30)
	s := r.Snapshot()
	wantOrder := []struct {
		name string
		node int
	}{{"a", 0}, {"a", 2}, {"b", 1}}
	for i, w := range wantOrder {
		if s.Counters[i].Name != w.name || s.Counters[i].Node != w.node {
			t.Fatalf("sort order[%d] = %s/%d, want %s/%d", i, s.Counters[i].Name, s.Counters[i].Node, w.name, w.node)
		}
	}
	if v, ok := s.Counter("a", 2); !ok || v != 20 {
		t.Fatalf("lookup a/2 = %d,%v", v, ok)
	}
	if _, ok := s.Counter("missing", 0); ok {
		t.Fatal("lookup of absent counter reported ok")
	}
}

func TestRollup(t *testing.T) {
	r := New()
	r.Counter("c", 0).Add(5)
	r.Counter("c", 1).Add(7)
	r.Gauge("g", 0).Set(3)
	r.Gauge("g", 1).Set(9)
	r.Gauge("g", 1).Set(2) // value drops, max stays 9
	r.Histogram("h", 0).Observe(10)
	r.Histogram("h", 1).Observe(1000)
	up := r.Snapshot().Rollup()
	if v, _ := up.Counter("c", NodeGlobal); v != 12 {
		t.Fatalf("rolled-up counter = %d, want 12", v)
	}
	g, ok := up.Gauge("g", NodeGlobal)
	if !ok || g.Max != 9 {
		t.Fatalf("rolled-up gauge max = %d, want 9", g.Max)
	}
	h, ok := up.Histogram("h", NodeGlobal)
	if !ok || h.Count != 2 || h.Sum != 1010 || h.Min != 10 || h.Max != 1000 {
		t.Fatalf("rolled-up histogram = %+v", h)
	}
	var total int64
	for _, bc := range h.Buckets {
		total += bc.Count
	}
	if total != 2 {
		t.Fatalf("rolled-up bucket mass = %d, want 2", total)
	}
}

// TestBindContract pins how a layer's Stats field and the registry
// share one storage location: Snapshot reads the field live, Counter()
// on the key reads and writes it, fields bound to one key sum, a nil
// registry's Bind is free, and bound counters render exactly like
// owned ones.
func TestBindContract(t *testing.T) {
	t.Run("snapshot reads live", func(t *testing.T) {
		r := New()
		var polls int64
		r.Bind("bbp.polls", 3, &polls)
		if v, ok := r.Snapshot().Counter("bbp.polls", 3); !ok || v != 0 {
			t.Fatalf("fresh bound counter = %d,%v, want 0,true", v, ok)
		}
		polls += 7
		if v, _ := r.Snapshot().Counter("bbp.polls", 3); v != 7 {
			t.Fatalf("snapshot after the field moved = %d, want 7", v)
		}
	})
	t.Run("counter aliases the field", func(t *testing.T) {
		r := New()
		var sent int64
		r.Bind("ring.packets_injected", 0, &sent)
		c := r.Counter("ring.packets_injected", 0)
		c.Inc()
		c.Add(4)
		if sent != 5 {
			t.Fatalf("Inc/Add on the bound key left the field at %d, want 5", sent)
		}
		sent++
		if c.Value() != 6 {
			t.Fatalf("Value() = %d after the field moved to 6", c.Value())
		}
	})
	t.Run("shared key sums", func(t *testing.T) {
		r := New()
		backbone, leaf := int64(2), int64(3)
		r.Bind("ring.packets_applied", 1, &backbone)
		r.Bind("ring.packets_applied", 1, &leaf)
		r.Bind("ring.packets_applied", 1, &leaf) // same field again: no-op
		if v, _ := r.Snapshot().Counter("ring.packets_applied", 1); v != 5 {
			t.Fatalf("two fields on one key = %d, want 5", v)
		}
	})
	t.Run("nil registry", func(t *testing.T) {
		var r *Registry
		var v int64
		allocs := testing.AllocsPerRun(1000, func() { r.Bind("x", 0, &v) })
		if allocs != 0 {
			t.Fatalf("nil Bind allocated %.1f times per run, want 0", allocs)
		}
		if s := r.Snapshot(); len(s.Counters) != 0 {
			t.Fatal("nil registry grew counters on Bind")
		}
	})
	t.Run("render order", func(t *testing.T) {
		owned, bound := New(), New()
		fields := []int64{10, 20, 30}
		for i, k := range []struct {
			name string
			node int
		}{{"b", 1}, {"a", 2}, {"a", 0}} {
			owned.Counter(k.name, k.node).Add(fields[i])
			bound.Bind(k.name, k.node, &fields[i])
		}
		var bo, bb bytes.Buffer
		owned.Snapshot().Render(&bo)
		bound.Snapshot().Render(&bb)
		if !bytes.Equal(bo.Bytes(), bb.Bytes()) {
			t.Fatalf("bound counters rendered differently from owned ones:\n%s\n---\n%s", bb.String(), bo.String())
		}
		s := bound.Snapshot()
		if s.Counters[0].Name != "a" || s.Counters[0].Node != 0 || s.Counters[2].Name != "b" {
			t.Fatalf("bound counters out of (name, node) order: %+v", s.Counters)
		}
	})
}
