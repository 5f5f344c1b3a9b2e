package main

import (
	"bufio"
	"fmt"
	"os"

	"repro/internal/liveness"
	"repro/internal/sim"
	"repro/internal/spin"
	"repro/internal/xport"
)

// Span names. MPI spans wrap the benchmark's calls into mpi.Comm; core
// spans wrap every call the MPI engine makes into its endpoint.
const (
	nameMPISend uint8 = iota
	nameMPIRecv
	nameMPIBarrier
	nameMPIAllreduce
	nameSend
	nameMcast
	nameRecv
	nameTryRecv
	nameRecvAny
	nameReserveWindow
	nameWriteWindow
	nameReadWindow
	nameStreamAllreduce
	numNames
)

var spanNames = [numNames]string{
	"mpi.send", "mpi.recv", "mpi.barrier", "mpi.allreduce",
	"core.send", "core.mcast", "core.recv", "core.tryrecv", "core.recvany",
	"core.reserve_window", "core.write_window", "core.read_window",
	"core.stream_allreduce",
}

func isMPI(name uint8) bool { return name < nameSend }

// span is one recorded call in virtual and host time.
type span struct {
	v0, v1 sim.Time
	h0, h1 int64
	parent int32 // index of the enclosing MPI span, -1 for none
	op     int32 // schedule index of the operation the call serves
	rank   int16
	name   uint8
	ok     bool // the call returned no error (TryRecv: found a message)
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced reps pay only the nil checks.
type tracer struct {
	spans  []span
	open   []int32 // per rank: the open MPI span, -1 for none
	active bool    // record only during the measured phase
}

func newTracer(ranks int) *tracer {
	t := &tracer{open: make([]int32, ranks)}
	for i := range t.open {
		t.open[i] = -1
	}
	return t
}

func (t *tracer) setActive(on bool) {
	if t != nil {
		t.active = on
	}
}

func (t *tracer) beginMPI(p *sim.Proc, rank int, name uint8, op int) int32 {
	if t == nil || !t.active {
		return -1
	}
	i := t.begin(p, rank, name, -1, int32(op))
	t.open[rank] = i
	return i
}

func (t *tracer) beginCore(p *sim.Proc, rank int, name uint8) int32 {
	if t == nil || !t.active {
		return -1
	}
	parent, op := t.open[rank], int32(-1)
	if parent >= 0 {
		op = t.spans[parent].op
	}
	return t.begin(p, rank, name, parent, op)
}

func (t *tracer) begin(p *sim.Proc, rank int, name uint8, parent, op int32) int32 {
	t.spans = append(t.spans, span{v0: p.Now(), h0: hostNs(), parent: parent, op: op, rank: int16(rank), name: name})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32, p *sim.Proc, ok bool) {
	if t == nil || i < 0 {
		return
	}
	s := &t.spans[i]
	s.v1, s.h1, s.ok = p.Now(), hostNs(), ok
	if isMPI(s.name) {
		t.open[s.rank] = -1
	}
}

// write stores the spans as tab-separated lines: name, rank, op,
// parent, virtual start and end (ns), host start and end (ns), ok.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "name\trank\top\tparent\tv0_ns\tv1_ns\th0_ns\th1_ns\tok")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%t\n", spanNames[s.name], s.rank, s.op, s.parent, s.v0, s.v1, s.h0, s.h1, s.ok)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedEP records a core span around every xport.Endpoint call.
type tracedEP struct {
	ep   xport.Endpoint
	t    *tracer
	rank int
}

func (e *tracedEP) Rank() int         { return e.ep.Rank() }
func (e *tracedEP) Procs() int        { return e.ep.Procs() }
func (e *tracedEP) MaxMessage() int   { return e.ep.MaxMessage() }
func (e *tracedEP) NativeMcast() bool { return e.ep.NativeMcast() }

func (e *tracedEP) Send(p *sim.Proc, dst int, data []byte) error {
	i := e.t.beginCore(p, e.rank, nameSend)
	err := e.ep.Send(p, dst, data)
	e.t.end(i, p, err == nil)
	return err
}

func (e *tracedEP) Mcast(p *sim.Proc, dsts []int, data []byte) error {
	i := e.t.beginCore(p, e.rank, nameMcast)
	err := e.ep.Mcast(p, dsts, data)
	e.t.end(i, p, err == nil)
	return err
}

func (e *tracedEP) Recv(p *sim.Proc, src int, buf []byte) (int, error) {
	i := e.t.beginCore(p, e.rank, nameRecv)
	n, err := e.ep.Recv(p, src, buf)
	e.t.end(i, p, err == nil)
	return n, err
}

func (e *tracedEP) TryRecv(p *sim.Proc, src int, buf []byte) (int, bool, error) {
	i := e.t.beginCore(p, e.rank, nameTryRecv)
	n, ok, err := e.ep.TryRecv(p, src, buf)
	e.t.end(i, p, ok && err == nil)
	return n, ok, err
}

func (e *tracedEP) RecvAny(p *sim.Proc, buf []byte) (int, int, error) {
	i := e.t.beginCore(p, e.rank, nameRecvAny)
	src, n, err := e.ep.RecvAny(p, buf)
	e.t.end(i, p, err == nil)
	return src, n, err
}

// tracedWindowed and tracedStream record the optional extensions.
type tracedWindowed struct {
	w xport.Windowed
	e *tracedEP
}

func (w tracedWindowed) ReserveWindow(p *sim.Proc, src, n int) (int, bool) {
	i := w.e.t.beginCore(p, w.e.rank, nameReserveWindow)
	off, ok := w.w.ReserveWindow(p, src, n)
	w.e.t.end(i, p, ok)
	return off, ok
}

// ReleaseWindow is pure bookkeeping with no process context, so it is
// forwarded without a span.
func (w tracedWindowed) ReleaseWindow(off, n int) { w.w.ReleaseWindow(off, n) }

func (w tracedWindowed) WriteWindow(p *sim.Proc, dst, off int, data []byte) sim.Time {
	i := w.e.t.beginCore(p, w.e.rank, nameWriteWindow)
	t := w.w.WriteWindow(p, dst, off, data)
	w.e.t.end(i, p, true)
	return t
}

func (w tracedWindowed) ReadWindow(p *sim.Proc, off int, buf []byte) {
	i := w.e.t.beginCore(p, w.e.rank, nameReadWindow)
	w.w.ReadWindow(p, off, buf)
	w.e.t.end(i, p, true)
}

type tracedStream struct {
	s xport.StreamReducer
	e *tracedEP
}

func (s tracedStream) StreamMax() int { return s.s.StreamMax() }

func (s tracedStream) StreamAllreduce(p *sim.Proc, op spin.RingOp, send, recv []byte) (bool, error) {
	i := s.e.t.beginCore(p, s.e.rank, nameStreamAllreduce)
	done, err := s.s.StreamAllreduce(p, op, send, recv)
	s.e.t.end(i, p, done && err == nil)
	return done, err
}

// wrapEndpoint returns ep behind a span-recording wrapper that
// implements exactly the optional interfaces ep implements, so the MPI
// engine's type assertions pick the same paths as on the bare endpoint.
func wrapEndpoint(ep xport.Endpoint, t *tracer) xport.Endpoint {
	b := &tracedEP{ep: ep, t: t, rank: ep.Rank()}
	w, isW := ep.(xport.Windowed)
	s, isS := ep.(xport.StreamReducer)
	l, isL := ep.(liveness.Provider)
	v, isV := ep.(liveness.PartitionView)
	tw, ts := tracedWindowed{w, b}, tracedStream{s, b}
	type (
		W = xport.Windowed
		S = xport.StreamReducer
		L = liveness.Provider
		V = liveness.PartitionView
	)
	switch [4]bool{isW, isS, isL, isV} {
	case [4]bool{false, false, false, false}:
		return b
	case [4]bool{true, false, false, false}:
		return struct {
			*tracedEP
			W
		}{b, tw}
	case [4]bool{false, true, false, false}:
		return struct {
			*tracedEP
			S
		}{b, ts}
	case [4]bool{true, true, false, false}:
		return struct {
			*tracedEP
			W
			S
		}{b, tw, ts}
	case [4]bool{false, false, true, false}:
		return struct {
			*tracedEP
			L
		}{b, l}
	case [4]bool{true, false, true, false}:
		return struct {
			*tracedEP
			W
			L
		}{b, tw, l}
	case [4]bool{false, true, true, false}:
		return struct {
			*tracedEP
			S
			L
		}{b, ts, l}
	case [4]bool{true, true, true, false}:
		return struct {
			*tracedEP
			W
			S
			L
		}{b, tw, ts, l}
	case [4]bool{false, false, false, true}:
		return struct {
			*tracedEP
			V
		}{b, v}
	case [4]bool{true, false, false, true}:
		return struct {
			*tracedEP
			W
			V
		}{b, tw, v}
	case [4]bool{false, true, false, true}:
		return struct {
			*tracedEP
			S
			V
		}{b, ts, v}
	case [4]bool{true, true, false, true}:
		return struct {
			*tracedEP
			W
			S
			V
		}{b, tw, ts, v}
	case [4]bool{false, false, true, true}:
		return struct {
			*tracedEP
			L
			V
		}{b, l, v}
	case [4]bool{true, false, true, true}:
		return struct {
			*tracedEP
			W
			L
			V
		}{b, tw, l, v}
	case [4]bool{false, true, true, true}:
		return struct {
			*tracedEP
			S
			L
			V
		}{b, ts, l, v}
	default:
		return struct {
			*tracedEP
			W
			S
			L
			V
		}{b, tw, ts, l, v}
	}
}
