// Package sim implements a deterministic discrete-event simulation kernel
// with a virtual nanosecond clock.
//
// The kernel interleaves two kinds of activity:
//
//   - plain events: closures scheduled at an absolute virtual time with
//     Kernel.At or Kernel.After, executed on the kernel goroutine; and
//   - processes: coroutines (see Proc) that model software running on a
//     simulated CPU. A process runs exclusively — the kernel switches to
//     its coroutine and regains control only when the process blocks
//     again — so all simulation state is accessed by at most one
//     goroutine at a time and no locking is needed anywhere in the models.
//
// Events with equal timestamps fire in scheduling order (a monotonically
// increasing sequence number breaks ties), which makes every run of a
// simulation bit-for-bit reproducible.
package sim

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Time is an absolute virtual time in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Microseconds reports the duration as a floating-point microsecond count,
// the unit used throughout the paper's figures.
func (d Duration) Microseconds() float64 { return float64(d) / 1e3 }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

type event struct {
	t Time
	// next links the events of one run (see Kernel.runs) in push order.
	next *event
	// An event either runs fn or, when proc is set, resumes that
	// process: a wake-up needs no closure of its own.
	fn   func()
	proc *Proc
	// done marks an event that fired or was canceled. Canceled events
	// stay in their run but are skipped when reached.
	done bool
	// observer events (periodic monitors: metrics streams, heartbeat
	// tickers) are invisible to Pending, so several observers never keep
	// each other — or a finished simulation — alive.
	observer bool
	// pooled marks an event no caller holds a handle to (a wake-up, an
	// AtKind/AfterKind callback, a Server completion): once fired it
	// goes back on the kernel's free list.
	pooled bool
	// kind labels the event for the self-profiler (AtKind/AfterKind);
	// empty means the generic "event" kind ("observer" when observer).
	kind string
}

// kindOf returns the profiling label of an event.
func kindOf(ev *event) string {
	if ev.kind != "" {
		return ev.kind
	}
	if ev.observer {
		return "observer"
	}
	return "event"
}

// run is one slot of the kernel's queue: the events pushed back to back
// for instant t, linked from head, keyed by the sequence number of the
// first of them.
type run struct {
	t    Time
	seq  uint64
	head *event
}

func (r *run) before(o *run) bool {
	return r.t < o.t || r.t == o.t && r.seq < o.seq
}

// Timer is a handle to a scheduled event that can be canceled before it
// fires. Canceling a timer that already fired is a no-op. The handle is
// the event itself, so scheduling allocates once, and a handle event is
// never recycled.
type Timer event

// Stop cancels the timer. It reports whether the event had not yet fired
// (and had not already been stopped).
func (t *Timer) Stop() bool {
	if t == nil || t.done {
		return false
	}
	t.done = true
	return true
}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; call NewKernel.
//
// The queue is a 4-ary min-heap of runs. A push joins the run of the
// previous push when both are for the same instant and that run is still
// queued; otherwise it opens a new run. Only the newest run can grow, so
// every event of an older run precedes every event of a newer run for
// the same instant, and popping run by run, first in first out within a
// run, fires events in exactly (time, push order). Pollers stepping in
// lockstep thus cost one heap operation per instant, not one per event.
type Kernel struct {
	now  Time
	seq  uint64
	runs []run
	// cur is the rest of the run being fired. It is at now and ahead
	// of every queued run.
	cur *event
	// open is the newest event while its run is still queued, nil
	// otherwise; openSeq is that run's key.
	open     *event
	openSeq  uint64
	procs    []*Proc
	live     int
	closed   bool
	executed int64
	prof     *Profiler
	// free holds fired pooled events for reuse. Only events no caller
	// holds a handle to are recycled, so a stale handle can never stop
	// a reused event.
	free []*event
}

// NewKernel returns a kernel with the clock at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn to run at absolute time t (which must not be in the
// past) and returns a cancelable handle.
func (k *Kernel) At(t Time, fn func()) *Timer {
	return k.handle(t, "", fn)
}

// handle schedules a cancelable event that is never recycled.
func (k *Kernel) handle(t Time, kind string, fn func()) *Timer {
	ev := &event{t: t, fn: fn, kind: kind}
	k.push(ev)
	return (*Timer)(ev)
}

// pooledEvent returns a handle-less event for t from the free list (or a new
// one); the caller sets fn or proc and pushes it.
func (k *Kernel) pooledEvent(t Time, kind string) *event {
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.t, ev.kind, ev.pooled = t, kind, true
	return ev
}

// push stamps ev with the next sequence number and queues it, joining
// the open run when ev is for the same instant.
func (k *Kernel) push(ev *event) {
	if ev.t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", ev.t, k.now))
	}
	seq := k.seq
	k.seq++
	if k.open != nil && k.open.t == ev.t {
		k.open.next = ev
	} else {
		k.openSeq = seq
		k.pushRun(run{t: ev.t, seq: seq, head: ev})
	}
	k.open = ev
}

// pushRun adds r to the run heap.
func (k *Kernel) pushRun(r run) {
	k.runs = append(k.runs, r)
	h := k.runs
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !r.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = r
}

// popRun removes the earliest run from the heap, closing it to pushes.
func (k *Kernel) popRun() {
	h := k.runs
	if h[0].seq == k.openSeq {
		k.open = nil
	}
	n := len(h) - 1
	last := h[n]
	h[n] = run{}
	h = h[:n]
	k.runs = h
	if n == 0 {
		return
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if h[c].before(&h[m]) {
				m = c
			}
		}
		if !h[m].before(&last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
}

// After schedules fn to run d from now.
func (k *Kernel) After(d Duration, fn func()) *Timer {
	if d < 0 {
		panic("sim: negative delay")
	}
	return k.At(k.now.Add(d), fn)
}

// AtObserver schedules fn like At but marks the event as an observer
// event: it fires normally yet is not counted by Pending. Periodic
// monitors (metrics streams, liveness tickers) schedule themselves this
// way so that each can use "Pending() == 0" to mean "only observers
// remain — the workload is done", even when several observers coexist.
func (k *Kernel) AtObserver(t Time, fn func()) *Timer {
	tm := k.At(t, fn)
	tm.observer = true
	return tm
}

// AfterObserver schedules fn like After, as an observer event.
func (k *Kernel) AfterObserver(d Duration, fn func()) *Timer {
	tm := k.After(d, fn)
	tm.observer = true
	return tm
}

// AtKind schedules fn like At with a profiling label: when a Profiler
// is installed, the event's wall-clock execution cost is attributed to
// kind instead of the generic "event" bucket. The label changes nothing
// else — ordering, Pending and the virtual clock are untouched. No
// handle is returned, so the event cannot be canceled and is recycled
// once it fires; use At or After for a cancelable event.
func (k *Kernel) AtKind(t Time, kind string, fn func()) {
	ev := k.pooledEvent(t, kind)
	ev.fn = fn
	k.push(ev)
}

// AfterKind schedules fn like After, labeled for the profiler.
func (k *Kernel) AfterKind(d Duration, kind string, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	k.AtKind(k.now.Add(d), kind, fn)
}

// SetProfiler installs (or, with nil, removes) a kernel self-profiler.
// Profiling reads the host clock around each executed event and
// attributes the cost to the event's kind; it charges zero virtual
// time and cannot reorder events, so a profiled run is bit-for-bit the
// same simulation. One profiler may be shared by consecutive kernels
// to accumulate a whole benchmark sweep.
func (k *Kernel) SetProfiler(p *Profiler) { k.prof = p }

// Executed returns how many events the kernel has executed so far
// (canceled events are not counted). With a profiler installed this
// equals the profiler's TotalEvents for this kernel — the identity
// cmd/anatomy -profile cross-checks.
func (k *Kernel) Executed() int64 { return k.executed }

// step executes the next pending event. It reports false when no events
// remain.
func (k *Kernel) step() bool {
	ev := k.peek()
	if ev == nil {
		return false
	}
	if ev != k.cur {
		// ev heads the earliest queued run: the rest of that run
		// becomes the one being fired.
		k.popRun()
	}
	k.cur = ev.next
	ev.next = nil
	ev.done = true
	k.now = ev.t
	k.executed++
	if k.prof != nil {
		t0 := time.Now()
		k.fire(ev)
		k.prof.record(kindOf(ev), time.Since(t0).Nanoseconds())
	} else {
		k.fire(ev)
	}
	if ev.pooled {
		*ev = event{}
		k.free = append(k.free, ev)
	}
	return true
}

// fire executes a popped event: a process wake-up or a plain callback.
func (k *Kernel) fire(ev *event) {
	if ev.proc != nil {
		k.handoff(ev.proc)
	} else {
		ev.fn()
	}
}

// DeadlockError reports that the event queue drained while processes were
// still blocked: nothing can ever wake them.
type DeadlockError struct {
	Time    Time
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%d: %d process(es) blocked forever: %s",
		e.Time, len(e.Blocked), strings.Join(e.Blocked, ", "))
}

// Run executes events until none remain. It returns a *DeadlockError if
// processes are still blocked when the queue drains, and nil when every
// spawned process has terminated.
func (k *Kernel) Run() error {
	for k.step() {
	}
	return k.checkDeadlock()
}

// RunUntil executes events with timestamps <= t and then advances the
// clock to exactly t. Blocked processes are not a deadlock here: the
// caller may schedule more work and resume.
func (k *Kernel) RunUntil(t Time) {
	for {
		if next := k.peek(); next == nil || next.t > t {
			break
		}
		k.step()
	}
	if t > k.now {
		k.now = t
	}
}

// RunFor runs the simulation for d virtual time from now.
func (k *Kernel) RunFor(d Duration) { k.RunUntil(k.now.Add(d)) }

// peek returns the next event to fire, or nil when none remains. It
// drops canceled events from the front of the current run and of the
// earliest queued run, and empty runs from the heap, so the result is
// at the head of either k.cur or k.runs[0].
func (k *Kernel) peek() *event {
	k.cur = skipDone(k.cur)
	if k.cur != nil {
		return k.cur
	}
	for len(k.runs) > 0 {
		if head := skipDone(k.runs[0].head); head != nil {
			k.runs[0].head = head
			return head
		}
		k.popRun()
	}
	return nil
}

// skipDone unlinks canceled events from the front of a run and returns
// its first live event.
func skipDone(ev *event) *event {
	for ev != nil && ev.done {
		next := ev.next
		ev.next = nil
		ev = next
	}
	return ev
}

// Pending counts scheduled, non-canceled, non-observer events still
// queued. A periodic observer (e.g. a metrics snapshot stream or a
// heartbeat ticker) uses it to decide whether rescheduling itself would
// keep an otherwise-finished simulation alive: when Pending is zero
// inside a timer callback, every remaining event belongs to observers,
// which all terminate themselves by the same test. Observers must
// schedule with AtObserver/AfterObserver for this to hold.
func (k *Kernel) Pending() int {
	n := pendingIn(k.cur)
	for i := range k.runs {
		n += pendingIn(k.runs[i].head)
	}
	return n
}

// pendingIn counts the live non-observer events of one run.
func pendingIn(ev *event) int {
	n := 0
	for ; ev != nil; ev = ev.next {
		if !ev.done && !ev.observer {
			n++
		}
	}
	return n
}

func (k *Kernel) checkDeadlock() error {
	if k.live == 0 {
		return nil
	}
	var blocked []string
	for _, p := range k.procs {
		if !p.done && !p.daemon {
			blocked = append(blocked, p.name)
		}
	}
	sort.Strings(blocked)
	return &DeadlockError{Time: k.now, Blocked: blocked}
}

// Close terminates every still-live process (their goroutines unwind via
// an internal panic) so that a test or tool can abandon a simulation
// without leaking goroutines. The kernel must not be used afterwards.
func (k *Kernel) Close() {
	if k.closed {
		return
	}
	k.closed = true
	for _, p := range k.procs {
		if !p.done {
			p.killed = true
			k.handoff(p)
		}
	}
}
