package report

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/scramnet"
)

// measured is the package's shared Run(): every shape and gate test
// reads it instead of re-running the suite or its measurements.
var measured = sync.OnceValue(Run)

// gate returns the named experiment's gate, failing the test when the
// suite has no such gated row.
func gate(t *testing.T, name string) func(Report) error {
	t.Helper()
	for _, e := range experiments {
		if e.name == name && e.gate != nil {
			return e.gate
		}
	}
	t.Fatalf("no gated experiment %q", name)
	return nil
}

// TestReportByteStable is the stability guarantee the `make bench` tier
// rests on: two full runs must marshal to identical bytes. The second
// run is independent of the shared one.
func TestReportByteStable(t *testing.T) {
	a := Marshal(measured())
	b := Marshal(Run())
	if !bytes.Equal(a, b) {
		t.Fatal("two identical report runs produced different bytes")
	}
}

// TestReportSchemaAndShape pins the document structure a schema-7
// consumer relies on.
func TestReportSchemaAndShape(t *testing.T) {
	r := measured()
	if r.Schema != 7 {
		t.Fatalf("schema = %d, want 7", r.Schema)
	}
	wantFigs := []string{"fig1_small", "fig1", "fig2", "fig3", "fig4", "fig5"}
	if len(r.Figures) != len(wantFigs) {
		t.Fatalf("got %d figures, want %d", len(r.Figures), len(wantFigs))
	}
	for i, f := range r.Figures {
		if f.Name != wantFigs[i] {
			t.Errorf("figure[%d] = %q, want %q", i, f.Name, wantFigs[i])
		}
		for _, s := range f.Series {
			if len(s.X) != len(s.Y) {
				t.Errorf("%s/%s: %d sizes but %d latencies", f.Name, s.Label, len(s.X), len(s.Y))
			}
		}
	}
	if len(r.Barrier) == 0 {
		t.Fatal("Figure 6 barrier table is empty")
	}
	if len(r.BusSweep) != len(busSizes) {
		t.Fatalf("bus sweep has %d points, want %d", len(r.BusSweep), len(busSizes))
	}
	if len(r.Rollup.Counters) == 0 {
		t.Fatal("rollup snapshot is empty — cluster instrumentation did not fire")
	}
	// The marshaled document must round-trip.
	var back Report
	if err := json.Unmarshal(Marshal(r), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Schema != r.Schema || back.RecvDMACrossoverBytes != r.RecvDMACrossoverBytes {
		t.Fatal("round-tripped report disagrees with original")
	}
}

// TestReportMatchesGoldenFigures pins the report's latencies to the
// same values the golden figure tests enforce: installing metrics must
// not move any figure (instruments never charge virtual time).
func TestReportMatchesGoldenFigures(t *testing.T) {
	r := measured()
	within := func(got, want, tol float64) bool {
		return math.Abs(got-want) <= tol*want
	}
	api0 := r.Figures[0].Series[0].Y[0] // fig1_small, SCRAMNet API, 0 B
	if !within(api0, 6.88, 0.02) {
		t.Errorf("API 0-byte latency %v µs, want 6.88 ±2%%", api0)
	}
	mpi0 := r.Figures[0].Series[1].Y[0] // fig1_small, MPI, 0 B
	if !within(mpi0, 43.92, 0.02) {
		t.Errorf("MPI 0-byte latency %v µs, want 43.92 ±2%%", mpi0)
	}
	if !within(r.Throughput.FixedMBs, 6.61, 0.02) {
		t.Errorf("fixed-mode throughput %v MB/s, want 6.61 ±2%%", r.Throughput.FixedMBs)
	}
	if !within(r.Throughput.VariableMBs, 16.80, 0.02) {
		t.Errorf("variable-mode throughput %v MB/s, want 16.80 ±2%%", r.Throughput.VariableMBs)
	}
}

// TestBusSweepShowsPIOReadDominance verifies the §7 claim the sweep
// exists to quantify: on the PIO receive path the receiver's read-word
// traffic grows with message size, and for large messages the DMA path
// is strictly cheaper.
func TestBusSweepShowsPIOReadDominance(t *testing.T) {
	r := measured()
	small, large := r.BusSweep[0], r.BusSweep[len(r.BusSweep)-1]
	if large.PIOReadWords <= small.PIOReadWords {
		t.Errorf("PIO read words did not grow with size: %d -> %d", small.PIOReadWords, large.PIOReadWords)
	}
	if large.DMAUs >= large.PIOUs {
		t.Errorf("at %d B, DMA receive (%v µs) should beat PIO (%v µs)", large.Bytes, large.DMAUs, large.PIOUs)
	}
	if large.BusBusyFrac <= 0 || large.BusBusyFrac > 1 {
		t.Errorf("bus utilization %v outside (0,1]", large.BusBusyFrac)
	}
}

// TestRecvDMAThresholdGate runs the E7 crossover scan and the adaptive
// estimator and enforces their `make bench` gate in-tree: on the default
// uncontended bus both land on 20 B, and a report whose adaptive value
// disagrees with the measured crossover fails Check().
func TestRecvDMAThresholdGate(t *testing.T) {
	m := measured()
	if err := gate(t, "recv_dma_crossover_bytes")(m); err != nil {
		t.Fatal(err)
	}
	if m.RecvDMACrossoverBytes != 20 || m.AdaptiveRecvDMABytes != 20 {
		t.Errorf("crossover %d B, adaptive threshold %d B; want both at the 20 B E7 crossover",
			m.RecvDMACrossoverBytes, m.AdaptiveRecvDMABytes)
	}
	off := m
	off.AdaptiveRecvDMABytes = int64(m.RecvDMACrossoverBytes) + 4
	err := off.Check()
	if err == nil || !strings.Contains(err.Error(), "recv_dma_crossover_bytes") {
		t.Fatalf("adaptive threshold %d B vs crossover %d B: Check() = %v, want the recv_dma_crossover_bytes gate to fail",
			off.AdaptiveRecvDMABytes, off.RecvDMACrossoverBytes, err)
	}
}

// TestPollAggregationGate runs the E9 measurement and enforces the
// `make bench` regression gate in-tree: the burst-read poll path must
// cut the 0-byte incast sink's full-round-trip poll reads by at least
// MinPollReductionPct versus per-word polling.
func TestPollAggregationGate(t *testing.T) {
	p := measured().PollAggregation
	if err := gate(t, "poll_aggregation")(measured()); err != nil {
		t.Fatal(err)
	}
	if p.BurstPollReads >= p.PerWordPollReads {
		t.Errorf("burst polling did not reduce poll reads: %d -> %d", p.PerWordPollReads, p.BurstPollReads)
	}
}

// TestFailoverLatencyGate runs the E10 measurement and enforces the
// `make bench` gate in-tree: a node death mid-Barrier must surface as a
// DeadPeerError within the detector's confirmation window (plus scan
// slack), and the hybrid router must reroute within the suspicion
// window (plus probe spacing) — both orders of magnitude below the
// ~51 ms retry-exhaustion path the failure detector replaces.
func TestFailoverLatencyGate(t *testing.T) {
	f := measured().FailoverLatency
	if err := gate(t, "failover_latency")(measured()); err != nil {
		t.Fatal(err)
	}
	if f.MPIErrorUs <= f.HybridRerouteUs {
		t.Errorf("MPI error (%v µs, confirmation-bound) should be slower than the hybrid reroute (%v µs, suspicion-bound)",
			f.MPIErrorUs, f.HybridRerouteUs)
	}
}

// TestRndvPipelineGate runs the E11 measurement and enforces the
// `make bench` gate in-tree: the receiver-posted-window pipelined
// rendezvous must beat the sequential path at the 64 KiB panel point
// by at least MinRndvImprovementPct. The ring wire bounds both paths,
// so the improvement must also stay below the sequential path's
// non-wire share — a larger number would mean the windowed path
// stopped paying for the wire at all, i.e. the model broke.
func TestRndvPipelineGate(t *testing.T) {
	z := measured().RndvPipeline
	if err := gate(t, "rndv_pipeline")(measured()); err != nil {
		t.Fatal(err)
	}
	if z.PipelinedUs >= z.SequentialUs {
		t.Errorf("windowed path (%v µs) not faster than sequential (%v µs)", z.PipelinedUs, z.SequentialUs)
	}
	// 64 KiB at 615 ns per 4-byte ring packet is ~10.1 ms of wire that
	// no protocol can remove.
	wireUs := float64(z.Bytes/4) * 0.615
	if z.PipelinedUs < wireUs {
		t.Errorf("pipelined latency %v µs beat the %v µs wire bound — model broken", z.PipelinedUs, wireUs)
	}
}

// TestGoldenBenchJSON compares the shared full report byte-for-byte against the checked-in BENCH_figures.json — the
// in-tree copy of what `make bench` enforces. Regenerate with:
//
//	go run ./cmd/figures -json BENCH_figures.json
func TestGoldenBenchJSON(t *testing.T) {
	golden := filepath.Join("..", "..", "..", "BENCH_figures.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	got := Marshal(measured())
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCH_figures.json drifted from the checked-in golden.\n"+
			"If the change is intended, regenerate with: go run ./cmd/figures -json BENCH_figures.json\n"+
			"(got %d bytes, want %d)", len(got), len(want))
	}
}

// TestBarrierScalingGate runs the E14 measurement and enforces the
// `make bench` gate in-tree: the NIC-combined barrier must beat the
// 16-node mcast-coordinator baseline by MinBarrierImprovementPct, its
// 16→256 scaling must stay flatter than O(ranks), the host baseline's
// critical path must pin the rank-0 coordinator as the gating rank,
// and the combining pass must relieve that rank's bus.
func TestBarrierScalingGate(t *testing.T) {
	b := measured().BarrierScaling
	if err := gate(t, "barrier_scaling")(measured()); err != nil {
		t.Fatal(err)
	}
	// One ring revolution of wire and hop delay bounds the NIC barrier
	// from below at every rank count.
	for _, pt := range b.NIC {
		cfg := scramnet.DefaultConfig(pt.Nodes)
		wireUs := float64(cfg.Nodes) * (float64(cfg.HopDelay) + 615.0) / 1000.0
		if pt.Us < wireUs {
			t.Errorf("%d-rank NIC barrier %v µs beat the %v µs one-revolution bound — model broken", pt.Nodes, pt.Us, wireUs)
		}
	}
	// The host coordinator serializes size-1 arrival drains plus the
	// release mcast; its critical-path share must carry a large part of
	// the window (measured ~0.44 — the rest is concurrent arrival sends
	// and wire), and the NIC round must cut the gating rank's serialized
	// work outright (measured ~60 µs → ~30 µs).
	if b.HostPath.PathFrac < 0.35 {
		t.Errorf("host barrier gating rank carries only %.2f of the window; coordinator serialization missing", b.HostPath.PathFrac)
	}
	if b.NICPath.PathUs >= b.HostPath.PathUs {
		t.Errorf("gating rank's critical-path share did not shrink: host %v µs → NIC %v µs", b.HostPath.PathUs, b.NICPath.PathUs)
	}
}

// TestStreamAllreduceGate runs the E12 measurement and enforces the
// `make bench` gate in-tree: the in-network handler allreduce must
// beat the rank-side tree at 16 nodes by at least
// MinStreamImprovementPct, must charge handler cycles in virtual time,
// and must degrade to the tree when a member is suspect.
func TestStreamAllreduceGate(t *testing.T) {
	s := measured().StreamAllreduce
	if err := gate(t, "stream_allreduce")(measured()); err != nil {
		t.Fatal(err)
	}
	if s.HandlerUs >= s.TreeUs {
		t.Errorf("handler path (%v µs) not faster than the tree (%v µs)", s.HandlerUs, s.TreeUs)
	}
	// The vector still circulates the whole ring once: 16 nodes of wire
	// and hop delay bound the fast path from below.
	cfg := scramnet.DefaultConfig(StreamAllreduceNodes)
	wireUs := float64(cfg.Nodes) * (float64(cfg.HopDelay) + 615.0) / 1000.0
	if s.HandlerUs < wireUs {
		t.Errorf("handler latency %v µs beat the %v µs one-revolution bound — model broken", s.HandlerUs, wireUs)
	}
}

// TestPartitionToleranceGate runs the E15 measurement and enforces the
// `make bench` gate in-tree: the double cut must surface as a minority
// PartitionError within the confirmation window (plus scan slack) but
// not before suspicion can stabilize; the splice must reconverge to an
// all-alive resynced membership within a few detector periods; and the
// dual ring's single-cut wrap path must cost latency — some, but only
// wire time.
func TestPartitionToleranceGate(t *testing.T) {
	pt := measured().PartitionTolerance
	if err := gate(t, "partition_tolerance")(measured()); err != nil {
		t.Fatal(err)
	}
	// Fencing rides the partition declaration, not dead-peer
	// confirmation: it must land well before the per-peer confirmation
	// window would have expired.
	if pt.FenceUs >= pt.ConfirmWindowUs {
		t.Errorf("fence (%v µs) did not beat the confirmation window (%v µs); the declaration is not faster than mass death", pt.FenceUs, pt.ConfirmWindowUs)
	}
	// The wrap penalty is pure wire time: an integer number of
	// secondary-ring hop delays.
	hopUs := float64(scramnet.DefaultConfig(4).HopDelay) / 1000.0
	if rem := math.Mod(pt.WrapPenaltyUs, hopUs); rem > 1e-9 && hopUs-rem > 1e-9 {
		t.Errorf("wrap penalty %v µs is not a whole number of %v µs hop delays — the wrap path charges more than wire time", pt.WrapPenaltyUs, hopUs)
	}
}

// TestGatesRejectZeroSection is the degenerate-measurement case: every
// gated experiment must reject a zero-valued section — a measurement
// that silently produced nothing. Each gate reads only its own section,
// so the zero Report zeroes exactly the section under test.
func TestGatesRejectZeroSection(t *testing.T) {
	gated := 0
	for _, e := range experiments {
		if e.gate == nil {
			continue
		}
		gated++
		if err := e.gate(Report{}); err == nil {
			t.Errorf("%s: gate accepted a zero-valued section", e.name)
		}
	}
	if gated == 0 {
		t.Fatal("the suite has no gated experiments")
	}
}

// TestCheckNamesEveryFailingGate breaks two sections at once: Check()
// must report both, so one red `make bench` names every regression.
func TestCheckNamesEveryFailingGate(t *testing.T) {
	r := measured()
	if err := r.Check(); err != nil {
		t.Fatalf("real report fails its gates: %v", err)
	}
	r.PollAggregation.ReductionPct = 0
	r.PartitionTolerance.WrapPenaltyUs = 0
	err := r.Check()
	if err == nil {
		t.Fatal("Check() passed a report with two broken sections")
	}
	for _, name := range []string{"poll_aggregation", "partition_tolerance"} {
		if !strings.Contains(err.Error(), name+" gate:") {
			t.Errorf("Check() error does not name the %s gate:\n%v", name, err)
		}
	}
	if strings.Contains(err.Error(), "rndv_pipeline") {
		t.Errorf("Check() names an unbroken section:\n%v", err)
	}
}
