package main

import (
	"encoding/binary"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// opKind names what one scheduled operation does.
type opKind uint8

const (
	opSend      opKind = iota // point-to-point message src -> dst
	opBarrier                 // Comm.Barrier, every rank
	opAllreduce               // Comm.Allreduce(SumU32), every rank
)

// op is one scheduled operation. Everything the simulated program
// receives — sizes, peers, payload bytes, reduction inputs — is here,
// generated from the seed before the cluster is built.
type op struct {
	kind     opKind
	src, dst int    // world ranks (opSend)
	tag      int    // MPI tag (opSend)
	data     []byte // payload (opSend)
	// replyTo is the index of the request this message answers, or -1.
	// A rank whose receive of the request failed sends no reply, so the
	// requester's receive runs into its deadline, as a closed-loop
	// caller would.
	replyTo int
	// aux marks a message that closes the loop (the bulk
	// acknowledgement) without being a measured operation.
	aux     bool
	contrib [][]byte // opAllreduce: each rank's send vector
	want    []byte   // opAllreduce: the host-side reduction
}

// workload is one named input set and the cluster it runs on.
type workload struct {
	name string
	// segments × rounds is the fixed schedule of one pass; each segment
	// runs on a freshly built cluster, so a pass also samples set-up
	// time segments times.
	segments, rounds int
	options          func() cluster.Options
	config           func() mpi.Config
	// round appends one round of operations drawn from rng. i is the
	// round's place in a seeded permutation of 0..of-1, for draws that
	// must cover their range evenly over a pass.
	round func(rng *rand.Rand, ops []op, i, of int) []op
	// warm is the unmeasured warm-up round that ends set-up.
	warm func() []op
	// note is printed with every run.
	note string
}

// Per-operation deadlines (mpi.Config.WaitTimeout). A failing wait
// costs its deadline in virtual time while every other rank polls, so
// each is kept a few times above the workload's slowest successful wait
// rather than at the 5 s default: about 11 ms for a 64 KiB rendezvous,
// under 0.2 ms for a ring64-mixed exchange. The NIC collectives wait on
// the BBP's own receive timeout, not on this one.
const (
	testbedTimeout = 50 * sim.Millisecond
	ring64Timeout  = 1 * sim.Millisecond
)

// withTimeout returns mpi.DefaultConfig with the given deadline.
func withTimeout(d sim.Duration) mpi.Config {
	cfg := mpi.DefaultConfig()
	cfg.WaitTimeout = d
	return cfg
}

var workloads = []*workload{
	// The paper's headline number and the busy-poll path: MPI engine,
	// BBP flags and PCI PIO reads, with no rendezvous, spin handlers or
	// large banks.
	{
		name:     "pingpong-small",
		segments: 4, rounds: 200,
		options: func() cluster.Options {
			return cluster.Options{Nodes: 4, Net: cluster.SCRAMNet, PIOOnlyBBP: true}
		},
		config: func() mpi.Config { return withTimeout(testbedTimeout) },
		round: func(rng *rand.Rand, ops []op, i, of int) []op {
			data := payload(rng, stratified(rng, i%16, 16, 0, 1024))
			ops = append(ops, send(len(ops), 0, 3, data, -1))
			return append(ops, send(len(ops), 3, 0, data, len(ops)-1))
		},
		warm: func() []op {
			return []op{send(0, 0, 3, nil, -1), send(1, 3, 0, nil, 0),
				send(2, 0, 3, make([]byte, 1024), -1), send(3, 3, 0, make([]byte, 1024), 2),
				{kind: opBarrier}}
		},
	},
	// The same core and ring layers moving bulk bytes instead of flags
	// (E11's zero-copy rendezvous): a small-message win that costs bulk
	// transfers shows here.
	{
		name:     "rendezvous-bulk",
		segments: 4, rounds: 25,
		options: func() cluster.Options {
			return cluster.Options{Nodes: 4, Net: cluster.SCRAMNet, PIOOnlyBBP: true}
		},
		config: func() mpi.Config {
			cfg := withTimeout(testbedTimeout)
			cfg.RndvZeroCopy = true
			return cfg
		},
		round: func(rng *rand.Rand, ops []op, i, of int) []op {
			data := payload(rng, stratified(rng, i, of, 17<<10, 64<<10))
			ops = append(ops, send(len(ops), 0, 3, data, -1))
			ack := send(len(ops), 3, 0, nil, len(ops)-1)
			ack.aux = true
			return append(ops, ack)
		},
		warm: func() []op {
			return []op{send(0, 0, 3, make([]byte, 17<<10), -1), send(1, 3, 0, nil, 0), {kind: opBarrier}}
		},
	},
	// Many hops, 64 polling procs, spin handlers, 64 x 2 MiB banks and
	// the collective planner, at a ring size where NIC offload matters.
	{
		name:     "ring64-mixed",
		segments: 7, rounds: 9,
		options: func() cluster.Options {
			bbp := core.DefaultConfig()
			bbp.Stream.Enabled = true
			return cluster.Options{Nodes: 64, Net: cluster.SCRAMNet, BBP: &bbp}
		},
		config: func() mpi.Config { return withTimeout(ring64Timeout) },
		round: func(rng *rand.Rand, ops []op, i, of int) []op {
			ops = append(ops, op{kind: opBarrier, replyTo: -1})
			// Every peer once per pass, in seeded order, and every vector
			// length from 1 to 8 lanes equally often: the pass's mix of
			// hop counts and lengths, and so its latency quantiles, is the
			// same for every seed.
			ops = append(ops, allreduce(rng, 64, 1+i%8))
			peer := 1 + i
			data := payload(rng, 64)
			ops = append(ops, send(len(ops), 0, peer, data, -1))
			return append(ops, send(len(ops), peer, 0, data, len(ops)-1))
		},
		note: "known defect: BBP destination masks are uint32 (core.Endpoint Send/Mcast/Bcast), so a host-path send to rank 32 or above " +
			"reaches nobody and the exchange with peers 32..63 fails at its deadline; failed counts those 64 of 252 ops until core is fixed",
		warm: func() []op {
			return []op{{kind: opBarrier, replyTo: -1}, allreduce(rand.New(rand.NewSource(0)), 64, 1),
				send(2, 0, 1, make([]byte, 64), -1), send(3, 1, 0, make([]byte, 64), 2)}
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// plan generates a workload's full schedule from the seed: segments
// lists of operations, each run on its own cluster.
func (w *workload) plan(seed int64) [][]op {
	rng := rand.New(rand.NewSource(seed))
	total := w.segments * w.rounds
	order := rng.Perm(total)
	segs := make([][]op, w.segments)
	for s := range segs {
		for r := 0; r < w.rounds; r++ {
			segs[s] = w.round(rng, segs[s], order[s*w.rounds+r], total)
		}
	}
	return segs
}

// stratified draws uniformly from stratum i of n equal strata of
// [lo, hi]. Callers cycle i over a permutation so every stratum is drawn
// equally often in a pass: the size mix, and with it the latency median,
// then depends little on the seed while every individual size does.
func stratified(rng *rand.Rand, i, n, lo, hi int) int {
	span := float64(hi - lo + 1)
	v := lo + int((float64(i)+rng.Float64())*span/float64(n))
	if v > hi {
		v = hi
	}
	return v
}

func payload(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func send(i, src, dst int, data []byte, replyTo int) op {
	if data == nil {
		data = []byte{}
	}
	return op{kind: opSend, src: src, dst: dst, tag: i, data: data, replyTo: replyTo}
}

// allreduce draws one rank-contribution vector of lanes u32 per rank
// and precomputes the wrapping sum the NIC must produce.
func allreduce(rng *rand.Rand, ranks, lanes int) op {
	o := op{kind: opAllreduce, replyTo: -1, contrib: make([][]byte, ranks), want: make([]byte, 4*lanes)}
	for r := range o.contrib {
		v := make([]byte, 4*lanes)
		for l := 0; l < lanes; l++ {
			x := rng.Uint32()
			binary.LittleEndian.PutUint32(v[4*l:], x)
			binary.LittleEndian.PutUint32(o.want[4*l:], binary.LittleEndian.Uint32(o.want[4*l:])+x)
		}
		o.contrib[r] = v
	}
	return o
}
