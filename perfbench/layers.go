package main

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// The paper's Figure 1 MPI one-way latency anchors on the 4-node ring.
const (
	paperMPI0B = 44.0 // µs
	paperMPI4B = 49.0 // µs
)

// counterMetrics maps per-layer metric names to the registry counters
// they normalise per operation.
var counterMetrics = []struct{ name, counter, unit string }{
	{"mpi.unexpected_msgs", "mpi.unexpected_msgs", "count/op"},
	{"mpi.window_stalls", "mpi.window_stalls", "count/op"},
	{"mpi.coll_replans", "mpi.coll_replans", "count/op"},
	{"mpi.stream_fallbacks", "mpi.stream_fallbacks", "count/op"},
	{"mpi.rndv_zero_copy", "mpi.rndv_zero_copy", "count/op"},
	{"mpi.nic_barriers", "mpi.nic_barriers", "count/op"},
	{"mpi.stream_allreduces", "mpi.stream_allreduces", "count/op"},
	{"core.poll_words", "bbp.poll_words", "count/op"},
	{"core.gc_passes", "bbp.gc_passes", "count/op"},
	{"core.retransmits", "bbp.retransmits", "count/op"},
	{"pci.pio_read_words", "pci.pio_read_words", "count/op"},
	{"pci.pio_write_words", "pci.pio_write_words", "count/op"},
	{"pci.read_bursts", "pci.pio_read_bursts", "count/op"},
	{"pci.dma_bytes", "pci.dma_bytes", "B/op"},
	{"scramnet.packets", "ring.packets_injected", "count/op"},
	{"scramnet.hops", "ring.hops", "count/op"},
	{"scramnet.bytes", "ring.bytes_injected", "B/op"},
	{"scramnet.packets_combined", "ring.packets_combined", "count/op"},
	{"scramnet.packets_lost", "ring.packets_lost", "count/op"},
	{"spin.handlers_run", "spin.handlers_run", "count/op"},
	{"spin.handler_cycles", "spin.handler_cycles", "count/op"},
	{"spin.traps_to_host", "spin.traps_to_host", "count/op"},
}

// perLayer fills the per-layer metrics: host costs from the untraced
// pass, counters, profiler kinds and spans from the traced one.
func perLayer(res *result, w *workload, pass, tpass []*rep) error {
	ops := float64(res.attempted)
	sum := func(reps []*rep, f func(*rep) float64) float64 {
		t := 0.0
		for _, r := range reps {
			t += f(r)
		}
		return t
	}
	var build, heap []float64
	for _, r := range pass {
		build = append(build, float64(r.buildNs)/1e9)
		heap = append(heap, float64(r.heapBytes)/1e6)
	}
	res.set("cluster.build_s", median(build), "s")
	res.set("cluster.heap_mb", median(heap), "MB")

	events := sum(pass, func(r *rep) float64 { return float64(r.events) })
	hostNs := sum(pass, func(r *rep) float64 { return float64(r.measureNs) })
	res.set("sim.events_per_op", events/ops, "count/op")
	res.set("sim.host_ns_per_event", hostNs/events, "ns")
	res.set("sim.allocs_per_op", sum(pass, func(r *rep) float64 { return float64(r.mallocs) })/ops, "count/op")
	res.set("sim.alloc_bytes_per_op", sum(pass, func(r *rep) float64 { return float64(r.allocB) })/ops, "B/op")
	res.set("sim.gc_pause_ms", sum(pass, func(r *rep) float64 { return float64(r.pauseNs) / 1e6 })/ops, "ms/op")
	for _, kind := range []string{"proc", "ring", "event"} {
		res.set("sim."+kind+"_ns_per_op", sum(tpass, func(r *rep) float64 { return float64(r.profNs[kind]) })/ops, "ns/op")
	}

	for _, m := range counterMetrics {
		res.set(m.name, sum(tpass, func(r *rep) float64 { return float64(r.counters[m.counter]) })/ops, m.unit)
	}
	res.set("pci.busy_vus", sum(tpass, func(r *rep) float64 { return float64(r.counters["pci.busy_ns"]) / 1e3 })/ops, "vus/op")

	var timeouts float64
	for _, r := range pass {
		for _, o := range r.ops {
			if o.timedOut {
				timeouts++
			}
		}
	}
	res.set("mpi.timeouts", timeouts/ops, "count/op")

	var sp spanTotals
	for _, r := range tpass {
		sp.add(r.spans)
	}
	res.set("mpi.self_vus_per_op", sp.mpiSelf/1e3/ops, "vus/op")
	res.set("core.send_vus", sp.send/1e3/ops, "vus/op")
	res.set("core.recv_vus", sp.recv/1e3/ops, "vus/op")
	res.set("core.window_vus", sp.window/1e3/ops, "vus/op")
	res.set("core.stream_vus", sp.stream/1e3/ops, "vus/op")
	res.set("core.calls", sp.calls/ops, "count/op")
	res.set("core.tryrecv_hit_ratio", sp.tryHits/max(sp.tries, 1), "ratio")

	res.set("failed_frac", float64(res.failed)/ops, "ratio")
	plain := sum(pass, func(r *rep) float64 { return float64(r.measureNs) })
	traced := sum(tpass, func(r *rep) float64 { return float64(r.measureNs) })
	res.set("trace.overhead_pct", 100*(traced/plain-1), "%")

	m0, err := modelOneWay(0)
	if err != nil {
		return err
	}
	m4, err := modelOneWay(4)
	if err != nil {
		return err
	}
	res.set("model.mpi_0b_err_pct", 100*math.Abs(m0-paperMPI0B)/paperMPI0B, "%")
	res.set("model.mpi_4b_err_pct", 100*math.Abs(m4-paperMPI4B)/paperMPI4B, "%")
	res.notes = append(res.notes, fmt.Sprintf("%s: model probe MPI one-way 0 B %.3f vus, 4 B %.3f vus (paper 44, 49)", w.name, m0, m4))
	return nil
}

// spanTotals sums span durations (virtual ns) per layer.
type spanTotals struct {
	mpiSelf, send, recv, window, stream float64
	calls, tries, tryHits               float64
}

func (t *spanTotals) add(tr *tracer) {
	child := make([]float64, len(tr.spans))
	for _, s := range tr.spans {
		d := float64(s.v1 - s.v0)
		if s.parent >= 0 {
			child[s.parent] += d
		}
		if isMPI(s.name) {
			continue
		}
		t.calls++
		switch s.name {
		case nameSend, nameMcast:
			t.send += d
		case nameRecv, nameRecvAny:
			t.recv += d
		case nameTryRecv:
			t.recv += d
			t.tries++
			if s.ok {
				t.tryHits++
			}
		case nameReserveWindow, nameWriteWindow, nameReadWindow:
			t.window += d
		case nameStreamAllreduce:
			t.stream += d
		}
	}
	for i, s := range tr.spans {
		if isMPI(s.name) {
			t.mpiSelf += float64(s.v1-s.v0) - child[i]
		}
	}
}

// modelOneWay measures the MPI one-way latency of an n-byte message the
// way the paper's Figure 1 does: ranks 0 and 1 of the 4-node PIO-only
// testbed, one warm-up and eight measured round trips, half the mean
// round trip.
func modelOneWay(n int) (float64, error) {
	const iters = 8
	k := sim.NewKernel()
	defer k.Close()
	c, err := cluster.New(k, cluster.Options{Nodes: 4, Net: cluster.SCRAMNet, PIOOnlyBBP: true})
	if err != nil {
		return 0, err
	}
	w := mpi.NewWorld(c.Endpoints, mpi.DefaultConfig())
	var total sim.Duration
	var failure error
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		buf, msg := make([]byte, n+1), make([]byte, n)
		peer := 1 - cm.Rank()
		if cm.Rank() > 1 {
			return
		}
		for i := 0; i <= iters; i++ {
			start := p.Now()
			var err error
			if cm.Rank() == 0 {
				if err = cm.Send(p, peer, 0, msg); err == nil {
					_, err = cm.Recv(p, peer, 0, buf)
				}
			} else if _, err = cm.Recv(p, peer, 0, buf); err == nil {
				err = cm.Send(p, peer, 0, msg)
			}
			if err != nil {
				failure = fmt.Errorf("model probe, %d B: %w", n, err)
				return
			}
			if cm.Rank() == 0 && i > 0 {
				total += p.Now().Sub(start)
			}
		}
	})
	if err := k.Run(); err != nil {
		return 0, fmt.Errorf("model probe, %d B: %w", n, err)
	}
	return total.Microseconds() / (2 * iters), failure
}
