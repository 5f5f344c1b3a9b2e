package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/xport"
)

// opRec is what one scheduled operation did. Point-to-point times run
// from the send call on the source to the receive return on the
// destination; collective times from the last rank's entry to the last
// rank's exit.
type opRec struct {
	v0, v1   sim.Time
	h0, h1   int64 // host ns since the process epoch
	failed   bool
	timedOut bool
}

// repMode selects what a rep installs besides the workload itself.
type repMode struct {
	wrap  bool // route every MPI endpoint through the span-recording wrapper
	instr bool // cluster.Options{Metrics, Profiler} and World.SetMetrics
	// hook, when set, is applied to every endpoint before the wrapper;
	// the tests use it to break delivery on purpose.
	hook func(xport.Endpoint) xport.Endpoint
}

// rep is one segment run on a freshly built cluster.
type rep struct {
	ops       []opRec
	setupNs   int64 // kernel creation through the end of the warm-up round
	buildNs   int64 // cluster.New alone
	heapBytes int64 // live heap added by cluster.New
	measureNs int64 // the measured phase's kernel run
	events    int64 // kernel events in the measured phase
	v0, v1    sim.Time
	bytes     int64 // payload bytes delivered in the measured phase
	mallocs   uint64
	allocB    uint64
	pauseNs   uint64
	counters  map[string]int64 // registry counter deltas, summed over nodes
	profNs    map[string]int64 // profiler wall-ns deltas per event kind
	spans     *tracer
	corrupt   []string // delivered-but-wrong results
}

var epoch = time.Now()

func hostNs() int64 { return time.Since(epoch).Nanoseconds() }

// runRep builds the workload's cluster, runs its warm-up round, then
// runs ops as the measured phase.
func runRep(w *workload, ops []op, mode repMode) (*rep, error) {
	runtime.GC()
	r := &rep{ops: make([]opRec, len(ops))}
	var reg *metrics.Registry
	var prof *sim.Profiler
	opts := w.options()
	if mode.instr {
		reg, prof = metrics.New(), sim.NewProfiler()
		opts.Metrics, opts.Profiler = reg, prof
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	t0 := hostNs()
	k := sim.NewKernel()
	defer k.Close()
	tb := hostNs()
	c, err := cluster.New(k, opts)
	if err != nil {
		return nil, fmt.Errorf("cluster.New: %w", err)
	}
	r.buildNs = hostNs() - tb
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.heapBytes = int64(ms1.HeapAlloc) - int64(ms0.HeapAlloc)
	if mode.wrap {
		r.spans = newTracer(len(c.Endpoints))
	}
	eps := make([]xport.Endpoint, len(c.Endpoints))
	for i, ep := range c.Endpoints {
		if mode.hook != nil {
			ep = mode.hook(ep)
		}
		if mode.wrap {
			ep = wrapEndpoint(ep, r.spans)
		}
		eps[i] = ep
	}
	world := mpi.NewWorld(eps, w.config())
	if reg != nil {
		world.SetMetrics(reg)
	}
	warm := w.warm()
	wx := &executor{ops: warm, recs: make([]opRec, len(warm))}
	world.RunSPMD(k, wx.body)
	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r.setupNs = hostNs() - t0
	if len(wx.corrupt) > 0 || wx.failures() > 0 {
		return nil, fmt.Errorf("warm-up round failed: %d failures, corrupt: %v", wx.failures(), wx.corrupt)
	}

	runtime.GC()
	runtime.ReadMemStats(&ms1)
	snap0 := counterSums(reg)
	prof0 := profWall(prof)
	ev0 := k.Executed()
	r.v0 = k.Now()
	x := &executor{ops: ops, recs: r.ops, tr: r.spans}
	r.spans.setActive(true)
	world.RunSPMD(k, x.body)
	tm := hostNs()
	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	r.measureNs = hostNs() - tm
	r.spans.setActive(false)
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	r.mallocs = ms2.Mallocs - ms1.Mallocs
	r.allocB = ms2.TotalAlloc - ms1.TotalAlloc
	r.pauseNs = ms2.PauseTotalNs - ms1.PauseTotalNs
	r.events = k.Executed() - ev0
	r.v1 = k.Now()
	r.bytes = x.bytes
	r.corrupt = x.corrupt
	if reg != nil {
		r.counters = diff(counterSums(reg), snap0)
		r.profNs = diff(profWall(prof), prof0)
	}
	return r, nil
}

// executor runs one schedule on every rank: each rank walks the whole
// list and plays its part in each operation, so every caller waits for
// its reply before the next request (a closed loop).
type executor struct {
	ops     []op
	recs    []opRec
	tr      *tracer
	bytes   int64
	corrupt []string
}

func (x *executor) failures() int {
	n := 0
	for _, r := range x.recs {
		if r.failed {
			n++
		}
	}
	return n
}

func (x *executor) body(p *sim.Proc, c *mpi.Comm) {
	me := c.Rank()
	maxLen := 0
	for i := range x.ops {
		if n := len(x.ops[i].data); n > maxLen {
			maxLen = n
		}
	}
	buf := make([]byte, maxLen+1) // one spare byte exposes an over-long delivery
	// lost[i] marks a request this rank failed to receive, so it skips
	// the reply that would have answered it. A corrupt delivery still
	// arrived and is answered.
	lost := map[int]bool{}
	for i := range x.ops {
		o, rec := &x.ops[i], &x.recs[i]
		switch o.kind {
		case opSend:
			switch me {
			case o.src:
				if o.replyTo >= 0 && lost[o.replyTo] {
					continue
				}
				rec.v0, rec.h0 = p.Now(), hostNs()
				sp := x.tr.beginMPI(p, me, nameMPISend, i)
				err := c.Send(p, o.dst, o.tag, o.data)
				x.tr.end(sp, p, err == nil)
				if err != nil {
					x.fail(rec, err)
				}
			case o.dst:
				sp := x.tr.beginMPI(p, me, nameMPIRecv, i)
				st, err := c.Recv(p, o.src, o.tag, buf)
				x.tr.end(sp, p, err == nil)
				rec.v1, rec.h1 = p.Now(), hostNs()
				if err != nil {
					x.fail(rec, err)
					lost[i] = true
					continue
				}
				if st.Source != o.src || st.Tag != o.tag || st.Len != len(o.data) || !bytes.Equal(buf[:st.Len], o.data) {
					x.corrupt = append(x.corrupt, fmt.Sprintf("op %d: %d->%d delivered source %d tag %d len %d, want source %d tag %d len %d and the generated payload",
						i, o.src, o.dst, st.Source, st.Tag, st.Len, o.src, o.tag, len(o.data)))
					rec.failed = true
					continue
				}
				x.bytes += int64(len(o.data))
			}
		case opBarrier, opAllreduce:
			x.enter(rec, p)
			var err error
			if o.kind == opBarrier {
				sp := x.tr.beginMPI(p, me, nameMPIBarrier, i)
				err = c.Barrier(p)
				x.tr.end(sp, p, err == nil)
			} else {
				out := make([]byte, len(o.want))
				sp := x.tr.beginMPI(p, me, nameMPIAllreduce, i)
				err = c.Allreduce(p, mpi.SumU32, o.contrib[me], out)
				x.tr.end(sp, p, err == nil)
				if err == nil && !bytes.Equal(out, o.want) {
					x.corrupt = append(x.corrupt, fmt.Sprintf("op %d: allreduce on rank %d got %x want %x", i, me, out, o.want))
					rec.failed = true
				}
			}
			x.exit(rec, p)
			if err != nil {
				x.fail(rec, err)
			}
		}
	}
}

func (x *executor) fail(rec *opRec, err error) {
	rec.failed = true
	if errors.Is(err, mpi.ErrTimeout) {
		rec.timedOut = true
	}
}

// enter and exit track a collective's last entry and last exit. The
// kernel runs events in virtual-time order, so the last entry in host
// order is also the last in virtual time.
func (x *executor) enter(rec *opRec, p *sim.Proc) {
	rec.v0, rec.h0 = p.Now(), hostNs()
}

func (x *executor) exit(rec *opRec, p *sim.Proc) {
	rec.v1, rec.h1 = p.Now(), hostNs()
}

// counterSums sums every registry counter over its nodes.
func counterSums(reg *metrics.Registry) map[string]int64 {
	if reg == nil {
		return nil
	}
	out := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		out[c.Name] += c.Value
	}
	return out
}

func profWall(prof *sim.Profiler) map[string]int64 {
	if prof == nil {
		return nil
	}
	out := map[string]int64{}
	for _, s := range prof.Stats() {
		out[s.Kind] = s.WallNs
	}
	return out
}

func diff(after, before map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
