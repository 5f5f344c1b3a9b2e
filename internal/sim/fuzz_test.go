package sim

import (
	"fmt"
	"testing"
)

// refEvent is the reference model's copy of one scheduled event.
type refEvent struct {
	t        Time
	seq      int
	observer bool
	gone     bool // fired or canceled
}

// queueModel mirrors every push the fuzzed program makes and checks each
// firing against the reference order: the earliest live event by
// (time, push order).
type queueModel struct {
	t    *testing.T
	k    *Kernel
	c    *Cond
	evs  []*refEvent
	seq  int
	bad  bool
	busy Time // the Server's backlog end
	// waiters mirrors c's waiters; a signal fills in the wake-up event.
	waiters []**refEvent
}

func (m *queueModel) errorf(format string, args ...any) {
	if !m.bad {
		m.bad = true
		m.t.Errorf(format, args...)
	}
}

// expect records a push at t and returns its reference event.
func (m *queueModel) expect(t Time, observer bool) *refEvent {
	e := &refEvent{t: t, seq: m.seq, observer: observer}
	m.seq++
	m.evs = append(m.evs, e)
	return e
}

// live counts the live non-observer reference events: Pending's value.
func (m *queueModel) live() int {
	n := 0
	for _, e := range m.evs {
		if !e.gone && !e.observer {
			n++
		}
	}
	return n
}

// fire checks that e, whose callback or resume is running now, is the
// earliest live reference event, retires it, and checks Pending.
func (m *queueModel) fire(e *refEvent) {
	if e.gone {
		m.errorf("event seq %d fired after it fired or was canceled", e.seq)
	}
	if now := m.k.Now(); now != e.t {
		m.errorf("event seq %d fired at %d, scheduled for %d", e.seq, now, e.t)
	}
	for _, o := range m.evs {
		if !o.gone && o != e && (o.t < e.t || o.t == e.t && o.seq < e.seq) {
			m.errorf("event (t=%d seq=%d) fired before (t=%d seq=%d)", e.t, e.seq, o.t, o.seq)
		}
	}
	e.gone = true
	if got, want := m.k.Pending(), m.live(); got != want {
		m.errorf("Pending() = %d inside event seq %d, want %d", got, e.seq, want)
	}
}

// callback returns an event body that retires e and, when b says so,
// schedules a same-or-later child event (b shrinks, so chains end).
func (m *queueModel) callback(e *refEvent, b byte) func() {
	return func() {
		m.fire(e)
		if b%3 == 1 {
			t := m.k.Now() + Time(b/3%4)
			m.k.AtKind(t, "child", m.callback(m.expect(t, false), b/12))
		}
	}
}

// signal wakes the longest waiter, mirroring Cond.Signal.
func (m *queueModel) signal() {
	if len(m.waiters) > 0 {
		*m.waiters[0] = m.expect(m.k.Now(), false)
		m.waiters = m.waiters[1:]
	}
	m.c.Signal()
}

// script runs a spawned process's steps, one byte each.
func (m *queueModel) script(p *Proc, first *refEvent, steps []byte) {
	m.fire(first)
	for _, s := range steps {
		switch s % 5 {
		case 0:
			d := Duration(1 + s/5%3)
			e := m.expect(m.k.Now().Add(d), false)
			p.Delay(d)
			m.fire(e)
		case 1:
			e := m.expect(m.k.Now(), false)
			p.Yield()
			m.fire(e)
		case 2:
			m.signal()
		case 3:
			e := new(*refEvent)
			m.waiters = append(m.waiters, e)
			m.c.Wait(p)
			m.fire(*e)
		case 4:
			now := m.k.Now()
			p.Delay(0) // no wake-up: returns at once
			if m.k.Now() != now {
				m.errorf("Delay(0) moved the clock from %d to %d", now, m.k.Now())
			}
		}
	}
}

// timerRef pairs a cancelable handle with its reference event.
type timerRef struct {
	tm *Timer
	e  *refEvent
}

// FuzzEventQueue drives the kernel with a byte-coded mix of At, After,
// AtObserver, AtKind, AfterKind, Timer.Stop, Server.Serve, spawned
// processes (Delay, Yield, Cond.Wait, Cond.Signal) and RunUntil, all at
// times a few nanoseconds apart so same-instant runs interleave, and
// checks every firing and every Pending() against the reference.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 3, 1, 0, 0, 1, 0, 8, 3})
	f.Add([]byte{7, 0, 1, 3, 2, 7, 0, 3, 5, 1, 9, 9, 8, 0, 0, 2, 0})
	f.Add([]byte{6, 2, 1, 6, 0, 1, 6, 3, 0, 0, 2, 5, 5, 0, 8, 1, 4, 1, 4})
	f.Add([]byte{2, 3, 0, 5, 0, 1, 1, 4, 3, 3, 4, 3, 7, 1, 10, 20, 35, 8, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		k := NewKernel()
		defer k.Close()
		m := &queueModel{t: t, k: k, c: NewCond(k)}
		s := NewServer(k)
		var timers []timerRef
		for ops := 0; len(data) > 0 && ops < 256 && !m.bad; ops++ {
			now := k.Now()
			switch op := next() % 10; op {
			case 0, 1, 2:
				d := Duration(next() % 4)
				e := m.expect(now.Add(d), op == 2)
				fn := m.callback(e, next())
				var tm *Timer
				switch op {
				case 0:
					tm = k.At(now.Add(d), fn)
				case 1:
					tm = k.After(d, fn)
				case 2:
					tm = k.AtObserver(now.Add(d), fn)
				}
				timers = append(timers, timerRef{tm, e})
			case 3:
				d := Duration(next() % 4)
				k.AtKind(now.Add(d), "ring", m.callback(m.expect(now.Add(d), false), next()))
			case 4:
				d := Duration(next() % 4)
				k.AfterKind(d, "bus", m.callback(m.expect(now.Add(d), false), next()))
			case 5:
				if len(timers) > 0 {
					r := timers[int(next())%len(timers)]
					if got, want := r.tm.Stop(), !r.e.gone; got != want {
						m.errorf("Stop() = %v on seq %d, want %v", got, r.e.seq, want)
					}
					r.e.gone = true
				}
			case 6:
				d := Duration(next() % 4)
				finish := max(now, m.busy).Add(d)
				m.busy = finish
				var fn func()
				if b := next(); b%4 != 0 {
					fn = m.callback(m.expect(finish, false), b)
				}
				if got := s.Serve(d, fn); got != finish {
					m.errorf("Serve(%d) finishes at %d, want %d", d, got, finish)
				}
			case 7:
				steps := []byte{next(), next(), next()}
				first := m.expect(now, false)
				k.Spawn(fmt.Sprintf("p%d", ops), func(p *Proc) { m.script(p, first, steps) })
			case 8:
				until := now.Add(Duration(next() % 4))
				k.RunUntil(until)
				if k.Now() != until {
					m.errorf("RunUntil(%d) left the clock at %d", until, k.Now())
				}
				if got, want := k.Pending(), m.live(); got != want {
					m.errorf("Pending() = %d after RunUntil(%d), want %d", got, until, want)
				}
			case 9:
				m.signal()
			}
		}
		if m.bad {
			return
		}
		err := k.Run()
		if blocked := len(m.waiters) > 0; blocked != (err != nil) {
			t.Errorf("Run() = %v with %d processes still waiting", err, len(m.waiters))
		}
		for _, e := range m.evs {
			if !e.gone {
				t.Errorf("event (t=%d seq=%d) never fired", e.t, e.seq)
			}
		}
		if n := k.Pending(); n != 0 {
			t.Errorf("Pending() = %d after Run", n)
		}
	})
}
