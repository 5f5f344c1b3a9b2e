package sim

// Queue is an unbounded FIFO with blocking receive, used to pass items
// between simulated processes and event handlers. Push never blocks.
type Queue[T any] struct {
	k        *Kernel
	items    []T
	nonempty *Cond
}

// NewQueue returns an empty queue attached to k.
func NewQueue[T any](k *Kernel) *Queue[T] {
	return &Queue[T]{k: k, nonempty: NewCond(k)}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push appends an item and wakes one waiting receiver.
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	q.nonempty.Signal()
}

// TryPop removes and returns the head item without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0]
	// Clear the vacated slot so the backing array does not keep a
	// popped item reachable.
	q.items[0] = zero
	q.items = q.items[1:]
	return v, true
}

// Pop blocks p until an item is available, then removes and returns it.
func (q *Queue[T]) Pop(p *Proc) T {
	for len(q.items) == 0 {
		q.nonempty.Wait(p)
	}
	v, _ := q.TryPop()
	return v
}

// PopTimeout is like Pop but gives up after d, reporting ok=false.
func (q *Queue[T]) PopTimeout(p *Proc, d Duration) (T, bool) {
	deadline := p.Now().Add(d)
	for len(q.items) == 0 {
		remain := deadline.Sub(p.Now())
		if remain <= 0 || !q.nonempty.WaitTimeout(p, remain) {
			var zero T
			return zero, false
		}
	}
	v, _ := q.TryPop()
	return v, true
}

// Peek returns the head item without removing it.
func (q *Queue[T]) Peek() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	return q.items[0], true
}

// Server models a FIFO service center (a wire, a bus, a DMA engine): jobs
// arriving while the server is busy queue behind it in virtual time. It
// is implemented without a process: Serve computes the completion time
// and schedules a single event.
type Server struct {
	k         *Kernel
	busyUntil Time
}

// NewServer returns an idle server.
func NewServer(k *Kernel) *Server { return &Server{k: k} }

// Serve enqueues a job of the given service duration and invokes done
// (which may be nil) at its completion time, from an event that cannot
// be canceled and is recycled once it fires. It returns the completion
// time.
func (s *Server) Serve(service Duration, done func()) Time {
	start := s.k.now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	finish := start.Add(service)
	s.busyUntil = finish
	if done != nil {
		s.k.AtKind(finish, "", done)
	}
	return finish
}

// BusyUntil returns the time at which the server's current backlog
// drains.
func (s *Server) BusyUntil() Time { return s.busyUntil }
