package mpi

// This file is the collective selection layer (DESIGN.md §15): one
// entry point per collective — Barrier, Bcast, Allreduce — with the
// algorithm chosen per call from an options list. Auto (the default)
// selects from the membership view, the transport's capabilities, the
// rank count, and the message size.
//
// Two mechanisms live here besides dispatch:
//
//   - The NIC-combined paths: Barrier expressed as one spin.Reducer
//     round over a single all-ones BAND lane, and Allreduce over the
//     same streaming pass, so gather state accumulates inside the
//     SCRAMNet cards at each ring transit (the combining counter,
//     PROTOCOL.md) instead of in rank-side poll trees.
//
//   - The collective planner: every tree collective is a member order
//     from plan(view) walked by one binomial broadcast and one binomial
//     gather. The view is the fixed rotation, the release tree
//     re-planned around *suspected* members (a falsely suspected member
//     still receives and the result matches the all-alive run; a
//     genuinely dead one surfaces as a DeadPeerError bounded by the
//     detector's confirmation window), or the quorum of a declared
//     partition.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"

	"repro/internal/liveness"
	"repro/internal/sim"
	"repro/internal/spin"
	"repro/internal/trace"
)

// Algorithm selects a collective implementation.
type Algorithm int

// The selectable algorithms. Not every algorithm applies to every
// collective — see the policy table in DESIGN.md §15; an inapplicable
// explicit choice returns ErrBadAlgorithm, while Auto always resolves
// to an applicable one.
const (
	// Auto picks from the membership view, transport capabilities,
	// rank count, and message size.
	Auto Algorithm = iota
	// Mcast uses the transport's single-step native multicast
	// (the paper's §4 implementation).
	Mcast
	// Tree uses the stock binomial tree over point-to-point messages
	// (with the membership-aware release re-plan when a failure
	// detector runs).
	Tree
	// Dissemination uses the root-free pairwise-exchange family: the
	// dissemination barrier, or recursive-doubling allreduce.
	Dissemination
	// NICCombined combines gather state inside the NICs at ring
	// transit points (spin.Reducer): the streaming allreduce, or the
	// barrier as a 1-lane BAND round.
	NICCombined
)

func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case Mcast:
		return "mcast"
	case Tree:
		return "tree"
	case Dissemination:
		return "dissemination"
	case NICCombined:
		return "nic-combined"
	}
	return fmt.Sprintf("mpi.Algorithm(%d)", int(a))
}

// ErrBadAlgorithm reports an explicit WithAlgorithm choice that does
// not apply to the collective it was passed to.
var ErrBadAlgorithm = errors.New("mpi: algorithm not applicable to this collective")

// CollectiveOpts carries per-call collective options.
type CollectiveOpts struct {
	Algorithm Algorithm
}

// CollectiveOption mutates CollectiveOpts.
type CollectiveOption func(*CollectiveOpts)

// WithAlgorithm pins the collective to one implementation instead of
// the Auto policy.
func WithAlgorithm(a Algorithm) CollectiveOption {
	return func(o *CollectiveOpts) { o.Algorithm = a }
}

func collectiveOpts(opts []CollectiveOption) CollectiveOpts {
	var o CollectiveOpts
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// The streamable 32-bit-lane operators as mpi.Op values. These are the
// ops Auto can offload to the NIC combining pass: they are named
// top-level functions so the selection layer can recognize them by
// code pointer and map them to the ring operator — callers never name
// a ring operator (or import internal/spin) themselves.
func foldU32(op spin.RingOp, acc, in []byte) {
	for i := 0; i+4 <= len(acc) && i+4 <= len(in); i += 4 {
		v := op.Combine(binary.LittleEndian.Uint32(acc[i:]), binary.LittleEndian.Uint32(in[i:]))
		binary.LittleEndian.PutUint32(acc[i:], v)
	}
}

// SumU32 adds little-endian uint32 lanes.
func SumU32(acc, in []byte) { foldU32(spin.OpSumU32, acc, in) }

// MaxU32 takes the elementwise maximum of uint32 lanes.
func MaxU32(acc, in []byte) { foldU32(spin.OpMaxU32, acc, in) }

// MinU32 takes the elementwise minimum of uint32 lanes.
func MinU32(acc, in []byte) { foldU32(spin.OpMinU32, acc, in) }

// BorU32 ORs uint32 lanes.
func BorU32(acc, in []byte) { foldU32(spin.OpBOR, acc, in) }

// BandU32 ANDs uint32 lanes.
func BandU32(acc, in []byte) { foldU32(spin.OpBAND, acc, in) }

// BxorU32 XORs uint32 lanes.
func BxorU32(acc, in []byte) { foldU32(spin.OpBXOR, acc, in) }

// ringOpTable maps the code pointers of the named u32 ops to their
// ring operators. Named top-level functions have distinct code
// pointers; closures (which can share one) are never registered, so a
// user-supplied Op can only ever miss the table and run host-side.
var ringOpTable = map[uintptr]spin.RingOp{}

func regRingOp(fn Op, op spin.RingOp) {
	ringOpTable[reflect.ValueOf(fn).Pointer()] = op
}

func init() {
	regRingOp(SumU32, spin.OpSumU32)
	regRingOp(MaxU32, spin.OpMaxU32)
	regRingOp(MinU32, spin.OpMinU32)
	regRingOp(BorU32, spin.OpBOR)
	regRingOp(BandU32, spin.OpBAND)
	regRingOp(BxorU32, spin.OpBXOR)
}

// ringOpOf resolves an Op to its streamable ring operator, OpNone when
// the op is not one of the named u32 ops.
func ringOpOf(op Op) spin.RingOp {
	if op == nil {
		return spin.OpNone
	}
	return ringOpTable[reflect.ValueOf(op).Pointer()]
}

// nicEligible reports whether the NIC combining substrate is usable
// for this communicator at all: an in-network transport, and the world
// communicator (the stream region is laid out for world ranks).
func (c *Comm) nicEligible() bool {
	return c.eng.stream != nil && c.ctx == 1
}

// chooseHost is the host-side policy of Barrier, Bcast and the
// allreduce release: native multicast when configured, else the tree.
func (c *Comm) chooseHost() Algorithm {
	if c.eng.cfg.McastCollectives && c.eng.ep.NativeMcast() {
		return Mcast
	}
	return Tree
}

// Barrier blocks until every member arrives. Auto prefers the
// NIC-combined round (gather state accumulated in the cards, one
// counter poll at rank 0), degrading to the host mcast/tree path when
// the stream substrate is absent, the membership view is not
// all-alive, or a packet was lost mid-round — the degradation verdict
// is rank-uniform, so every member falls back together.
func (c *Comm) Barrier(p *sim.Proc, opts ...CollectiveOption) error {
	e := c.eng
	v, err := c.membership()
	if err != nil {
		return err
	}
	algo := collectiveOpts(opts).Algorithm
	var span trace.SpanID
	if v.subs != nil {
		// A quorum barrier always runs the tree over the subgroup.
		algo = Tree
		span = e.tracer.BeginSpan(p.Now(), trace.MPI, e.ep.Rank(), "barrier", 0, e.tracer.Parent(), "algo=quorum size=%d of %d", len(v.subs), c.Size())
	} else {
		if algo == Auto {
			if c.nicEligible() {
				algo = NICCombined
			} else {
				algo = c.chooseHost()
			}
		}
		span = e.tracer.BeginSpan(p.Now(), trace.MPI, e.ep.Rank(), "barrier", 0, e.tracer.Parent(), "algo=%v size=%d", algo, c.Size())
	}
	e.tracer.PushParent(span)
	err = c.runBarrier(p, v, algo)
	e.tracer.PopParent()
	e.tracer.EndSpan(p.Now(), trace.MPI, e.ep.Rank(), "barrier-end", span, 0, "err=%v", err)
	return err
}

func (c *Comm) runBarrier(p *sim.Proc, v view, algo Algorithm) error {
	switch algo {
	case NICCombined:
		return c.barrierNIC(p, v)
	case Mcast:
		return c.barrierMcast(p)
	case Tree:
		return c.barrierTree(p, v)
	case Dissemination:
		return c.barrierDissemination(p)
	}
	return fmt.Errorf("%w: %v barrier", ErrBadAlgorithm, algo)
}

// barrierNIC expresses the barrier as one spin.Reducer round over a
// single all-ones BAND lane: every rank's "I arrived" is its staged
// contribution, each transit ANDs the lane and bumps the combining
// counter inside the card, and rank 0's one counter poll replaces the
// rank-side gather tree. The transport declines collectively (same
// verdict every rank) when the all-alive gate fails or a packet was
// lost, and the barrier degrades to the host path.
func (c *Comm) barrierNIC(p *sim.Proc, v view) error {
	e := c.eng
	if !c.nicEligible() {
		return c.runBarrier(p, v, c.chooseHost())
	}
	var one, out [4]byte
	binary.LittleEndian.PutUint32(one[:], ^uint32(0))
	p.Delay(e.cfg.Costs.CollOverhead)
	done, err := e.stream.StreamAllreduce(p, spin.OpBAND, one[:], out[:])
	if err != nil {
		return err
	}
	if done {
		e.stats.NICBarriers++
		return nil
	}
	e.stats.StreamFallbacks++
	return c.runBarrier(p, v, c.chooseHost())
}

// Bcast broadcasts buf (same length on all ranks) from root. Auto uses
// the transport's single-step native multicast when configured, else
// the binomial tree (re-planned around suspected members when a
// failure detector runs).
func (c *Comm) Bcast(p *sim.Proc, root int, buf []byte, opts ...CollectiveOption) error {
	v, err := c.membership()
	if err != nil {
		return err
	}
	algo := collectiveOpts(opts).Algorithm
	switch {
	case v.subs != nil:
		algo = Tree // a quorum broadcast always runs the subgroup tree
	case algo == Auto:
		algo = c.chooseHost()
	}
	switch algo {
	case Mcast:
		return c.bcastMcast(p, root, buf)
	case Tree:
		return c.bcastTree(p, v, root, buf)
	}
	return fmt.Errorf("%w: %v bcast", ErrBadAlgorithm, algo)
}

// Allreduce combines sendBuf from every rank with op (assumed
// commutative and associative) into every rank's recvBuf. Auto
// offloads to the NIC combining pass when the op is one of the named
// u32 operators (SumU32, ..., BxorU32), the vector fits the stream
// region, and the substrate is present; everything else runs the
// Reduce+Bcast tree. Dissemination selects recursive doubling.
func (c *Comm) Allreduce(p *sim.Proc, op Op, sendBuf, recvBuf []byte, opts ...CollectiveOption) error {
	v, err := c.membership()
	if err != nil {
		return err
	}
	algo := collectiveOpts(opts).Algorithm
	switch {
	case v.subs != nil:
		algo = Tree // a quorum allreduce always runs the subgroup tree
	case algo == Auto && c.nicReduceEligible(op, sendBuf, recvBuf):
		algo = NICCombined
	case algo == Auto:
		algo = Tree
	}
	switch algo {
	case NICCombined:
		return c.allreduceNIC(p, v, op, sendBuf, recvBuf)
	case Tree:
		return c.allreduceTree(p, v, op, sendBuf, recvBuf)
	case Dissemination:
		return c.allreduceRD(p, op, sendBuf, recvBuf)
	}
	return fmt.Errorf("%w: %v allreduce", ErrBadAlgorithm, algo)
}

// nicReduceEligible reports whether this allreduce call can try the
// in-network pass. For a well-formed collective call — every rank
// passing the same op and equally sized buffers — every predicate is
// rank-uniform except the recvBuf length, which a buggy caller can
// break per-rank; that rank then declines alone, rank 0's arrival wait
// expires, and the whole collective degrades to the tree together (see
// core.StreamAllreduce).
func (c *Comm) nicReduceEligible(op Op, sendBuf, recvBuf []byte) bool {
	n := len(sendBuf)
	return c.nicEligible() && ringOpOf(op).Valid() &&
		n > 0 && n%4 == 0 && n <= c.eng.stream.StreamMax() && len(recvBuf) >= n
}

// allreduceNIC runs the streaming in-network reduction, degrading to
// the tree when the transport declines (suspicion, loss, or timeout —
// same verdict on every rank for the same round).
func (c *Comm) allreduceNIC(p *sim.Proc, v view, op Op, sendBuf, recvBuf []byte) error {
	if !c.nicReduceEligible(op, sendBuf, recvBuf) {
		return c.allreduceTree(p, v, op, sendBuf, recvBuf)
	}
	e := c.eng
	ring := ringOpOf(op)
	n := len(sendBuf)
	p.Delay(e.cfg.Costs.CollOverhead)
	span := e.tracer.BeginSpan(p.Now(), trace.MPI, e.ep.Rank(), "allreduce-stream", 0, e.tracer.Parent(), "op=%v len=%d", ring, n)
	e.tracer.PushParent(span)
	done, err := e.stream.StreamAllreduce(p, ring, sendBuf, recvBuf[:n])
	e.tracer.PopParent()
	e.tracer.EndSpan(p.Now(), trace.MPI, e.ep.Rank(), "allreduce-stream-end", span, 0, "done=%v err=%v", done, err)
	if err != nil {
		return err
	}
	if done {
		e.stats.StreamAllreduces++
		return nil
	}
	e.stats.StreamFallbacks++
	return c.allreduceTree(p, v, op, sendBuf, recvBuf)
}

// --- One planner, two executors --------------------------------------
//
// Every tree collective is a member order walked by one of two binomial
// executors: bcast (order[0] roots a binomial tree over order[:h], then
// feeds the leaves order[h:] itself) and gather (contributions flow
// toward order[0], optionally folded with an Op). Membership views
// differ only in the order plan hands the executor:
//
//   - fixed: the rotation [root, root+1, ...] mod n — MPICH's stock
//     shape. Without a failure detector every tree uses it; with one it
//     still carries the plan fence, Reduce and the barrier's arrival
//     gather.
//   - planned: the root, then the members its detector holds Alive in
//     rank order, then the suspects (h = healthy count) — the release
//     trees of Bcast, Barrier and Allreduce when a detector runs.
//   - quorum: under a declared partition, the reachable members rotated
//     to the root.
//
// With no suspects the fixed and planned orders still differ whenever
// root ≠ 0, so the view, not the suspect set, picks the order.
//
// The planned view demotes every member the root's failure detector
// holds in Suspect or Dead to a leaf: suspects forward to nobody, so a
// member that is about to be confirmed dead cannot stall a healthy
// subtree behind it. The plan is decided by the root alone and fenced
// in-band — a plan record (epoch + suspect mask) rides the fixed tree
// ahead of the payload — so divergent per-rank membership views cannot
// split the collective: every member routes by the carried plan, not
// by its own view. The epoch increments each time the root's suspect
// set changes (Engine.Stats().CollReplans, mpi.coll_replans), marking
// re-plan generations in traces.
//
// The quorum view needs no fence: every member derives it from its own
// declared partition, which is safe because the declaration itself is
// deterministic (hardware cut count plus a contiguous stable suspect
// arc, converging on the shared heartbeat tick). The minority side
// never reaches a tree: its members get a PartitionError at the entry
// gate. Epoch bookkeeping still runs (notePartitionPlan) so re-plan
// generations stay visible in traces and the post-heal fence sees the
// mask change.

// view is the membership a tree collective plans over: under a declared
// partition that splits the communicator, the partition and its quorum
// subs (the comm ranks on this side, ascending — the calling rank
// always among them); otherwise subs is nil and the view is every
// member.
type view struct {
	part liveness.PartitionInfo
	subs []int
}

// membership is the partition gate every collective opens with: a
// minority member is fenced with a PartitionError, a majority member of
// a split communicator gets the quorum view.
func (c *Comm) membership() (view, error) {
	e := c.eng
	part, ok := e.partition()
	if !ok {
		return view{}, nil
	}
	if part.Minority {
		return view{}, e.partitionErr(part)
	}
	subs := make([]int, 0, c.Size())
	for r, w := range c.group {
		if !part.Unreachable(w) {
			subs = append(subs, r)
		}
	}
	if len(subs) == c.Size() {
		return view{}, nil
	}
	return view{part: part, subs: subs}, nil
}

// root is where the rootless collectives (Barrier, Allreduce) gather
// and release from: comm rank 0, or the quorum's first member.
func (v view) root() int {
	if v.subs != nil {
		return v.subs[0]
	}
	return 0
}

// plan lays out a tree collective rooted at root (a valid comm rank):
// the member order with root at position 0, and the healthy count h —
// order[:h] form the binomial tree, order[h:] hang off the root as
// leaves. Under a partition it is the quorum order, with the plan
// generation noted; a release tree (fence set) on a comm with a
// failure detector is re-planned around the root's suspects behind the
// in-band fence; everything else runs the fixed rotation.
func (c *Comm) plan(p *sim.Proc, v view, root int, fence bool) (order []int, h int, err error) {
	switch {
	case v.subs != nil:
		if v.part.Unreachable(c.group[root]) {
			// The tree's source is behind the cut: no quorum re-plan
			// can produce it.
			return nil, 0, c.eng.partitionErr(v.part)
		}
		c.notePartitionPlan(p, v, c.rank == root)
		i := slices.Index(v.subs, root)
		return slices.Concat(v.subs[i:], v.subs[:i]), len(v.subs), nil
	case fence && c.eng.live != nil && c.Size() > 1:
		mask, err := c.fencePlan(p, root)
		if err != nil {
			return nil, 0, err
		}
		order, h = c.planOrder(root, mask)
		return order, h, nil
	}
	return c.rotation(root), c.Size(), nil
}

// rotation is the fixed order [root, root+1, ...] mod n, built in the
// comm's reusable order buffer so the fault-free path allocates nothing.
func (c *Comm) rotation(root int) []int {
	n := c.Size()
	order := c.order[:0]
	for i := 0; i < n; i++ {
		order = append(order, (root+i)%n)
	}
	c.order = order
	return order
}

// planOrder lays out the re-planned release tree in the order buffer:
// root at position 0, healthy members in rank order, suspected members
// last; h is the healthy count.
func (c *Comm) planOrder(root int, mask []byte) (order []int, h int) {
	order = append(c.order[:0], root)
	for r := 0; r < c.Size(); r++ {
		if r != root && !maskBit(mask, r) {
			order = append(order, r)
		}
	}
	h = len(order)
	for r := 0; r < c.Size(); r++ {
		if r != root && maskBit(mask, r) {
			order = append(order, r)
		}
	}
	c.order = order
	return order, h
}

// suspectMask returns the comm-rank bitmask of members this rank's
// membership view holds in a non-Alive state (empty without a
// detector).
func (c *Comm) suspectMask() []byte {
	mask := make([]byte, (c.Size()+7)/8)
	e := c.eng
	if e.live == nil {
		return mask
	}
	self := e.ep.Rank()
	for r, w := range c.group {
		if w != self && e.live.State(w) != liveness.Alive {
			mask[r/8] |= 1 << (r % 8)
		}
	}
	return mask
}

// partMask renders the partition's unreachable members as a comm-rank
// bitmask, the same shape fencePlan uses for suspects, so plan
// generations from both views compare byte for byte.
func (c *Comm) partMask(part liveness.PartitionInfo) []byte {
	mask := make([]byte, (c.Size()+7)/8)
	for r, w := range c.group {
		if part.Unreachable(w) {
			mask[r/8] |= 1 << (r % 8)
		}
	}
	return mask
}

func maskBit(mask []byte, r int) bool { return mask[r/8]&(1<<(r%8)) != 0 }

func maskEmpty(mask []byte) bool {
	for _, b := range mask {
		if b != 0 {
			return false
		}
	}
	return true
}

// fencePlan is the re-plan fence: the root reads its membership view,
// bumps the plan epoch if the suspect set changed, and broadcasts the
// plan record over the fixed tree so every member holds the same plan
// before any payload moves. Returns the suspect mask to route by.
func (c *Comm) fencePlan(p *sim.Proc, root int) ([]byte, error) {
	e := c.eng
	nb := (c.Size() + 7) / 8
	rec := make([]byte, 4+nb)
	if c.rank == root {
		mask := c.suspectMask()
		if !bytes.Equal(mask, c.lastPlanMask) {
			c.planEpoch++
			c.lastPlanMask = append([]byte(nil), mask...)
			if !maskEmpty(mask) {
				e.stats.CollReplans++
				e.tracer.Emitf(p.Now(), trace.MPI, e.ep.Rank(), "coll-replan", "epoch=%d mask=%x", c.planEpoch, mask)
			}
		}
		binary.LittleEndian.PutUint32(rec, c.planEpoch)
		copy(rec[4:], mask)
	}
	if err := c.bcast(p, c.rotation(root), c.Size(), tagPlan, rec); err != nil {
		return nil, err
	}
	mask := rec[4:]
	// The root can never be its own suspect; clear defensively so the
	// order math cannot double-place it.
	mask[root/8] &^= 1 << (root % 8)
	if c.rank != root {
		c.planEpoch = binary.LittleEndian.Uint32(rec)
	}
	return mask, nil
}

// notePartitionPlan records the quorum as a plan generation: same
// epoch/mask bookkeeping as fencePlan, but updated symmetrically on
// every member (there is no record broadcast to sync from). The
// counter and trace fire only at the collective's root so CollReplans
// keeps its one-per-replanned-collective meaning.
func (c *Comm) notePartitionPlan(p *sim.Proc, v view, isRoot bool) {
	e := c.eng
	mask := c.partMask(v.part)
	if bytes.Equal(mask, c.lastPlanMask) {
		return
	}
	c.planEpoch++
	c.lastPlanMask = mask
	if isRoot {
		e.stats.CollReplans++
		e.tracer.Emitf(p.Now(), trace.MPI, e.ep.Rank(), "coll-replan", "epoch=%d mask=%x quorum=%d", c.planEpoch, mask, len(v.subs))
	}
}

// bcast is the one binomial broadcast: order[0] roots a binomial tree
// over order[:h], then feeds each leaf in order[h:] last — a demoted
// member's payload never gates a healthy subtree, and a confirmed-dead
// one surfaces here (or at its own liveness-aware receive) as
// DeadPeerError.
func (c *Comm) bcast(p *sim.Proc, order []int, h, tag int, buf []byte) error {
	pos := slices.Index(order, c.rank)
	if pos >= h {
		_, err := c.Recv(p, order[0], tag, buf)
		return err
	}
	mask := 1
	for ; mask < h; mask <<= 1 {
		if pos&mask != 0 {
			if _, err := c.Recv(p, order[pos-mask], tag, buf); err != nil {
				return err
			}
			break
		}
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if pos+mask < h {
			if err := c.Send(p, order[pos+mask], tag, buf); err != nil {
				return err
			}
		}
	}
	if pos == 0 {
		for _, r := range order[h:] {
			if err := c.Send(p, r, tag, buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// gather is the one binomial gather toward order[0]: each member
// receives its children's contributions into tmp, charging the copy
// and folding each into acc with op when op is set, then sends acc to
// its parent. With nil buffers it carries bare arrival tokens, and the
// zero-length copy charges nothing.
func (c *Comm) gather(p *sim.Proc, order []int, tag int, op Op, acc, tmp []byte) error {
	pos := slices.Index(order, c.rank)
	for mask := 1; mask < len(order); mask <<= 1 {
		if pos&mask != 0 {
			return c.Send(p, order[pos-mask], tag, acc)
		}
		if pos+mask < len(order) {
			if _, err := c.Recv(p, order[pos+mask], tag, tmp); err != nil {
				return err
			}
			p.Delay(sim.Duration(len(tmp)) * c.eng.cfg.Costs.CopyPerByte)
			if op != nil {
				op(acc, tmp)
			}
		}
	}
	return nil
}

// bcastTree is the tree broadcast over the view's planned order.
func (c *Comm) bcastTree(p *sim.Proc, v view, root int, buf []byte) error {
	if err := c.checkRank(root); err != nil {
		return err
	}
	order, h, err := c.plan(p, v, root, true)
	if err != nil {
		return err
	}
	return c.bcast(p, order, h, tagBcast, buf)
}

// barrierTree is the point-to-point barrier: a binomial gather of
// arrival tokens toward the view's root over the fixed (or quorum)
// order — arrivals flow toward the root regardless of suspicion, since
// only the root owns the re-plan decision — then the release over the
// planned tree.
func (c *Comm) barrierTree(p *sim.Proc, v view) error {
	order, _, err := c.plan(p, v, v.root(), false)
	if err != nil {
		return err
	}
	if err := c.gather(p, order, tagBarrier, nil, nil, nil); err != nil {
		return err
	}
	return c.bcastTree(p, v, v.root(), nil)
}

// allreduceTree folds every contribution toward the view's root and
// broadcasts the result back. Outside a partition that is Reduce to
// rank 0 followed by the host broadcast (native multicast when
// configured, else the planned tree). Over a quorum the fold runs in
// place in recvBuf and the unreachable arc's contributions are simply
// absent — the reduction over the quorum is the only meaningful result
// a partitioned collective can produce.
func (c *Comm) allreduceTree(p *sim.Proc, v view, op Op, sendBuf, recvBuf []byte) error {
	if v.subs == nil {
		if err := c.Reduce(p, 0, op, sendBuf, recvBuf); err != nil {
			return err
		}
		if c.chooseHost() == Mcast {
			return c.bcastMcast(p, 0, recvBuf)
		}
		return c.bcastTree(p, v, 0, recvBuf)
	}
	if len(recvBuf) < len(sendBuf) {
		return ErrTruncated
	}
	order, h, err := c.plan(p, v, v.root(), false)
	if err != nil {
		return err
	}
	acc := recvBuf[:len(sendBuf)]
	copy(acc, sendBuf)
	if err := c.gather(p, order, tagReduce, op, acc, make([]byte, len(sendBuf))); err != nil {
		return err
	}
	return c.bcast(p, order, h, tagBcast, acc)
}
