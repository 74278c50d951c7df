package sim

// This file implements the input-queue organizations of a LogNIC IP block
// (paper Figure 2(b)): an IP has m input queues feeding a (weighted)
// round-robin scheduler in front of its n engines. The analytical model
// concatenates those queues into one logical "virtual shared queue"
// (§3.6); the simulator supports both organizations so the abstraction can
// be validated — see TestVirtualSharedQueueAbstraction.
//
// Storage is part of the fast-path engine (events.go): waiting requests
// are queued-by-value records in ring buffers whose backing arrays are
// preallocated from the vertex's configured QueueCapacity, so the
// steady-state hot path enqueues and dequeues without allocating or
// shifting slices.

// queueOrg is a vertex's input-queue organization.
type queueOrg interface {
	// push enqueues a request arriving from the named upstream vertex.
	// It reports false when the queue is full (the request is dropped).
	push(from string, q queued) bool
	// pop dequeues the next request according to the discipline; ok is
	// false when nothing waits.
	pop() (q queued, ok bool)
	// length is the total number of waiting requests.
	length() int
}

// ring is a FIFO of queued records over a power-of-two circular buffer.
// Bounded queues never grow past their preallocation; unbounded queues
// double amortized.
type ring struct {
	buf  []queued
	head int // index of the oldest entry
	n    int // occupied entries
}

// ringCapacity rounds a queue-capacity hint to the preallocated buffer
// size: the next power of two ≥ capacity, clamped to [16, 1024] so huge
// configured capacities don't preallocate memory the run may never touch.
func ringCapacity(capacity int) int {
	size := 16
	for size < capacity && size < 1024 {
		size <<= 1
	}
	return size
}

func newRing(capacity int) ring {
	return ring{buf: make([]queued, ringCapacity(capacity))}
}

func (r *ring) push(q queued) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = q
	r.n++
}

func (r *ring) pop() (queued, bool) {
	if r.n == 0 {
		return queued{}, false
	}
	q := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return q, true
}

func (r *ring) grow() {
	next := make([]queued, 2*len(r.buf))
	for i := 0; i < r.n; i++ {
		next[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = next
	r.head = 0
}

// sharedQueue is the paper's virtual shared queue: one FIFO with a global
// capacity (0 = unbounded).
type sharedQueue struct {
	capacity int
	ring
}

func newSharedQueue(capacity int) *sharedQueue {
	return &sharedQueue{capacity: capacity, ring: newRing(capacity)}
}

func (s *sharedQueue) push(_ string, q queued) bool {
	if s.capacity > 0 && s.n >= s.capacity {
		return false
	}
	s.ring.push(q)
	return true
}

func (s *sharedQueue) length() int { return s.n }

// wrrQueues is the hardware organization: one FIFO per input edge, each
// with its own capacity (the paper's k entries per queue), drained by a
// weighted round-robin scheduler. A queue with weight w receives up to w
// consecutive grants before the pointer advances.
type wrrQueues struct {
	order    []string // upstream names, scheduler order
	index    map[string]int
	queues   []ring
	capacity int   // per-queue k
	weights  []int // per-queue WRR weight
	ptr      int   // current queue
	grants   int   // grants consumed at the current queue
	total    int
}

// newWRRQueues builds per-edge queues for the upstream names, with the
// given per-queue capacity (0 = unbounded) and weights (nil = all 1).
func newWRRQueues(upstreams []string, capacity int, weights map[string]int) *wrrQueues {
	w := &wrrQueues{
		order:    append([]string(nil), upstreams...),
		index:    map[string]int{},
		queues:   make([]ring, len(upstreams)),
		capacity: capacity,
		weights:  make([]int, len(upstreams)),
	}
	for i, name := range upstreams {
		w.index[name] = i
		w.queues[i] = newRing(capacity)
		w.weights[i] = 1
		if weights != nil {
			if v, ok := weights[name]; ok && v > 0 {
				w.weights[i] = v
			}
		}
	}
	return w
}

func (w *wrrQueues) push(from string, q queued) bool {
	i, ok := w.index[from]
	if !ok {
		// Unknown upstream (e.g. ingress feeding a single-queue IP):
		// treat as the first queue.
		i = 0
	}
	if w.capacity > 0 && w.queues[i].n >= w.capacity {
		return false
	}
	w.queues[i].push(q)
	w.total++
	return true
}

func (w *wrrQueues) pop() (queued, bool) {
	if w.total == 0 {
		return queued{}, false
	}
	n := len(w.queues)
	for scanned := 0; scanned < n; scanned++ {
		i := w.ptr
		if w.queues[i].n > 0 && w.grants < w.weights[i] {
			q, _ := w.queues[i].pop()
			w.total--
			w.grants++
			if w.grants >= w.weights[i] || w.queues[i].n == 0 {
				w.advance()
			}
			return q, true
		}
		w.advance()
	}
	return queued{}, false
}

func (w *wrrQueues) advance() {
	w.ptr = (w.ptr + 1) % len(w.queues)
	w.grants = 0
}

func (w *wrrQueues) length() int { return w.total }
