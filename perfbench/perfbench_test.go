package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/liveness"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/xport"
)

// shrink returns w cut to one segment of rounds rounds.
func shrink(t *testing.T, name string, rounds int) *workload {
	t.Helper()
	w := workloadByName(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	c := *w
	c.segments, c.rounds = 1, rounds
	return &c
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.plan(7), w.plan(7), w.plan(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed generated different inputs", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w.name)
		}
		if len(a) != w.segments {
			t.Errorf("%s: %d segments, want %d", w.name, len(a), w.segments)
		}
	}
}

func TestPlanShapes(t *testing.T) {
	sizes := func(name string, src int) []int {
		var out []int
		for _, seg := range workloadByName(name).plan(3) {
			for _, o := range seg {
				if o.kind == opSend && o.src == src && !o.aux {
					out = append(out, len(o.data))
				}
			}
		}
		return out
	}
	eager := mpi.DefaultConfig().EagerMax
	for _, n := range sizes("pingpong-small", 0) {
		if n < 0 || n > 1024 || n > eager {
			t.Fatalf("pingpong-small size %d outside 0..1024 eager", n)
		}
	}
	for _, n := range sizes("rendezvous-bulk", 0) {
		if n < 17<<10 || n > 64<<10 || n <= eager {
			t.Fatalf("rendezvous-bulk size %d outside 17..64 KiB rendezvous", n)
		}
	}
	seen := map[int]int{}
	for _, seg := range workloadByName("ring64-mixed").plan(3) {
		for _, o := range seg {
			if o.kind == opSend && o.src == 0 {
				seen[o.dst]++
			}
		}
	}
	for peer := 1; peer < 64; peer++ {
		if seen[peer] != 1 {
			t.Fatalf("ring64-mixed exchanges with peer %d %d times per pass, want once", peer, seen[peer])
		}
	}
}

// TestTracedRunIsTransparent checks that wrapping every endpoint leaves
// the simulated run untouched: the digest, every registry counter, and
// so the MPI path choices (zero-copy rendezvous, NIC barrier, NIC
// allreduce) are the same with and without the wrapper.
func TestTracedRunIsTransparent(t *testing.T) {
	paths := map[string]string{
		"pingpong-small":  "mpi.eager_sent",
		"rendezvous-bulk": "mpi.rndv_zero_copy",
		"ring64-mixed":    "mpi.nic_barriers",
	}
	for name, counter := range paths {
		w := shrink(t, name, 3)
		ops := w.plan(5)[0]
		plain, err := runRep(w, ops, repMode{})
		if err != nil {
			t.Fatal(err)
		}
		again, err := runRep(w, ops, repMode{})
		if err != nil {
			t.Fatal(err)
		}
		instr, err := runRep(w, ops, repMode{instr: true})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runRep(w, ops, repMode{instr: true, wrap: true})
		if err != nil {
			t.Fatal(err)
		}
		d := repDigest(plain)
		if repDigest(again) != d || repDigest(instr) != d || repDigest(traced) != d {
			t.Errorf("%s: digests differ: plain %s again %s instrumented %s traced %s",
				name, d, repDigest(again), repDigest(instr), repDigest(traced))
		}
		if !reflect.DeepEqual(instr.counters, traced.counters) {
			t.Errorf("%s: the wrapper changed registry counters", name)
		}
		if instr.counters[counter] == 0 {
			t.Errorf("%s: %s is 0: the workload missed its path", name, counter)
		}
		if name == "ring64-mixed" && traced.counters["mpi.stream_allreduces"] == 0 {
			t.Errorf("ring64-mixed: no NIC allreduce")
		}
		if len(traced.spans.spans) == 0 {
			t.Errorf("%s: traced rep recorded no spans", name)
		}
	}
}

type fakeEP struct{}

func (fakeEP) Rank() int                                         { return 0 }
func (fakeEP) Procs() int                                        { return 2 }
func (fakeEP) MaxMessage() int                                   { return 0 }
func (fakeEP) Send(*sim.Proc, int, []byte) error                 { return nil }
func (fakeEP) Mcast(*sim.Proc, []int, []byte) error              { return nil }
func (fakeEP) Recv(*sim.Proc, int, []byte) (int, error)          { return 0, nil }
func (fakeEP) TryRecv(*sim.Proc, int, []byte) (int, bool, error) { return 0, false, nil }
func (fakeEP) RecvAny(*sim.Proc, []byte) (int, int, error)       { return 0, 0, nil }
func (fakeEP) NativeMcast() bool                                 { return false }

func optional(ep xport.Endpoint) [4]bool {
	_, w := ep.(xport.Windowed)
	_, s := ep.(xport.StreamReducer)
	_, l := ep.(liveness.Provider)
	_, v := ep.(liveness.PartitionView)
	return [4]bool{w, s, l, v}
}

func TestWrapperForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	eps := []xport.Endpoint{
		fakeEP{},
		struct {
			fakeEP
			xport.Windowed
		}{},
		struct {
			fakeEP
			xport.StreamReducer
		}{},
		struct {
			fakeEP
			xport.Windowed
			xport.StreamReducer
		}{},
		struct {
			fakeEP
			liveness.Provider
		}{},
		struct {
			fakeEP
			xport.StreamReducer
			liveness.PartitionView
		}{},
	}
	for _, net := range []cluster.Network{cluster.SCRAMNet, cluster.Hybrid, cluster.FastEthernet} {
		k := sim.NewKernel()
		c, err := cluster.New(k, cluster.Options{Nodes: 2, Net: net})
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, c.Endpoints[0])
		k.Close()
	}
	for i, ep := range eps {
		if got, want := optional(wrapEndpoint(ep, newTracer(1))), optional(ep); got != want {
			t.Errorf("endpoint %d (%T): wrapped has %v, bare has %v", i, ep, got, want)
		}
	}
}

// TestDestMaskDefectIsCounted pins the known defect ring64-mixed shows:
// a host-path send to rank 32 or above reaches nobody, so the exchange
// with such a peer fails at its deadline while one with a lower peer
// completes.
func TestDestMaskDefectIsCounted(t *testing.T) {
	w := shrink(t, "ring64-mixed", 1)
	data := []byte("sixty-four byte exchange payload, checked byte for byte on arrival")[:64]
	ops := []op{{kind: opBarrier, replyTo: -1},
		send(1, 0, 40, data, -1), send(2, 40, 0, data, 1),
		{kind: opBarrier, replyTo: -1},
		send(4, 0, 5, data, -1), send(5, 5, 0, data, 4)}
	r, err := runRep(w, ops, repMode{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{false, true, true, false, false, false} {
		if r.ops[i].failed != want {
			t.Errorf("op %d failed=%v, want %v", i, r.ops[i].failed, want)
		}
	}
	if !r.ops[1].timedOut || !r.ops[2].timedOut {
		t.Errorf("exchange with rank 40 should fail by deadline: %+v %+v", r.ops[1], r.ops[2])
	}
	if len(r.corrupt) != 0 {
		t.Errorf("unexpected corrupt results: %v", r.corrupt)
	}
}

// corrupting flips the last byte of every eager payload the endpoint
// drains with Recv, except at the 1024 B the warm-up round sends.
type corrupting struct{ xport.Endpoint }

func (c corrupting) Recv(p *sim.Proc, src int, buf []byte) (int, error) {
	n, err := c.Endpoint.Recv(p, src, buf)
	if n > 0 && n != 1024 {
		buf[n-1] ^= 0xff
	}
	return n, err
}

func TestCorruptDeliveryIsReported(t *testing.T) {
	w := shrink(t, "pingpong-small", 4)
	ops := w.plan(9)[0]
	r, err := runRep(w, ops, repMode{hook: func(ep xport.Endpoint) xport.Endpoint { return corrupting{ep} }})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.corrupt) == 0 {
		t.Fatal("flipped payload bytes went unnoticed")
	}
}

// TestMetricsMatchBenchmarkJSON checks that each mode prints exactly
// the metrics BENCHMARK.json declares, with the declared units, and
// that every value is a finite number.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	w := shrink(t, "pingpong-small", 5)
	for _, tc := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		res, err := measure(w, 1, 0, tc.traced)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct || res.attempted != 10 || res.failed != 0 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", tc.traced, res.correct, res.attempted, res.failed)
		}
		if len(res.metrics) != len(tc.want) {
			t.Errorf("trace=%v: %d metrics, BENCHMARK.json declares %d", tc.traced, len(res.metrics), len(tc.want))
		}
		for _, m := range tc.want {
			got, ok := res.metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("trace=%v: %s missing", tc.traced, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("trace=%v: %s unit %q, BENCHMARK.json says %q", tc.traced, m.Name, got.Unit, m.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("trace=%v: %s = %v", tc.traced, m.Name, got.Value)
			}
		}
	}
}

func TestModelProbeMatchesFigure1(t *testing.T) {
	for _, c := range []struct {
		n     int
		paper float64
	}{{0, paperMPI0B}, {4, paperMPI4B}} {
		us, err := modelOneWay(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(us-c.paper)/c.paper > 0.02 {
			t.Errorf("%d B: %.2f vus, paper %.0f", c.n, us, c.paper)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{{"--workload", "nope"}, {"--workload", "pingpong-small", "--trace", "2"}, {"--bogus"}} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
}
