package sim

// This file is the fast-path event engine: a typed, allocation-free
// replacement for the original container/heap scheduler.
//
// The original engine paid three per-event costs at multi-million-event
// figure budgets: one *event heap allocation, one or two closure
// allocations capturing the event's operands, and container/heap's
// interface dispatch (Less/Swap/Push/Pop through `any` boxing) on every
// sift. This engine removes all three:
//
//   - the pending set is 24-byte {time, seq, slot, lane} keys over a
//     payload slab: an event's payload is written once, straight into its
//     slot, and dispatched where it lies, and the slot is freed after
//     dispatch returns. Slab slots recycle through a free list, so the
//     slab never grows past the peak number of pending events;
//   - the keys sit in a run, a sorted slice of at most runCap keys whose
//     last element is the next event, in front of a 4-ary min-heap that
//     holds the rest. Every run key sorts before the heap's root, so a
//     pop takes the run's last key and reads the heap only when the run
//     is empty. A key that sorts before the root is inserted into the run
//     from the back; an overflowing run moves its latest key to the heap.
//     On a small graph every key fits in the run and the heap's sifts,
//     whose min-of-four child selection mispredicts often, never run; a
//     wide graph keeps its hundreds of keys in the heap, where an
//     operation is logarithmic in them (log₄ levels, a node's four
//     children sharing cache lines);
//   - beside them sits one lane per transmission resource (interface,
//     memory, each dedicated link): a FIFO of keys of which only the front
//     is in the run or the heap. A FIFO link books each transfer after
//     the last, so the arrivals whose last hop is one link complete in
//     (time, seq) order; a saturated link's backlog then waits in its
//     lane instead of lengthening the run and the heap. A lane accepts an
//     event only if it does not sort before the lane's tail, and anything
//     else goes to the run or the heap, so lanes never change the dequeue
//     order;
//   - the event's action is a small kind tag plus typed operands
//     dispatched through one switch, replacing per-event closures;
//   - packet records recycle through a free list of handles (sim.go), and
//     per-vertex queue storage is preallocated ring buffers sized from the
//     vertex's configured queue capacity (queues.go);
//   - payloads, queue records and free lists name vertices and packets by
//     index, never by pointer, so the slab, lane and queue rings, packet
//     blocks and free lists are pointer-free memory: the GC never scans
//     them, and no store into them pays a write barrier while a
//     collection is marking.
//
// With observability off (Config.Spans nil) the steady-state loop
// allocates nothing per event; TestSteadyStateAllocFree pins that.
//
// Determinism contract: the queue orders events by (time, seq) where seq
// is the strictly increasing schedule counter, exactly the total order the
// seed engine used — ties cannot exist, so any split between run, heap
// and lanes dequeues the identical sequence and results stay byte-identical
// (enforced by the golden-digest suite and FuzzEventQueue's container/heap
// oracle).

import "slices"

// eventKind discriminates the scheduled actions.
type eventKind uint8

const (
	// evArrival injects the pending generated packet and pumps the next
	// arrival from the traffic generator.
	evArrival eventKind = iota
	// evArriveAt lands a packet at a vertex: a finished transfer, or a
	// retry re-issue after backoff.
	evArriveAt
	// evServiceDone completes one engine's service of a packet.
	evServiceDone
	// evFault applies cfg.Faults[idx].
	evFault
	// evLinkRestore ends a timed LinkDegrade.
	evLinkRestore
	// evStallRecover ends a VertexStall window.
	evStallRecover
	// evWarmup rebases every observation window at the warmup cutoff.
	evWarmup
)

// event is one scheduled action's payload, stored by value in the queue's
// slab; its fire time and sequence number live in its key. Vertices are
// named by their 1-based index in Simulator.nodes (0 for none) and
// packets by their handle in Simulator.packets, never by pointer (see
// "Heap and slab" in docs/SIM.md). The operand fields are kind-specific:
//
//	evArrival:      a = packet size, flow = flow id (time is the arrival)
//	evArriveAt:     node = destination, from = upstream vertex (0 for a
//	                fresh ingress arrival), pkt
//	evServiceDone:  node = server, pkt, a = queueing wait, b = service start
//	evFault:        idx into cfg.Faults
//	evLinkRestore:  idx into cfg.Faults (the LinkDegrade being undone)
//	evStallRecover: node = stalled vertex, idx = originating fault
//	evWarmup:       no operands
type event struct {
	a, b float64
	flow uint64
	node int32
	from int32
	pkt  int32
	idx  int32
	kind eventKind
}

// eventKey is one run, heap or lane entry: the (time, seq) ordering key,
// the slab slot holding the event's payload, and the lane (1-based, 0 for
// none) whose front the event is. The queue moves these 24-byte keys,
// never the payload.
type eventKey struct {
	time float64
	seq  uint64
	slot int32
	lane int32
}

// before is the scheduling order: time, then schedule sequence. seq is
// unique per event, so this is a total order.
func (k *eventKey) before(o *eventKey) bool {
	if k.time != o.time {
		return k.time < o.time
	}
	return k.seq < o.seq
}

// lane is a FIFO of pending events already in (time, seq) order, held
// beside the run and the heap: only its front is in one of them, so a
// backed-up link costs them one key instead of one per queued transfer.
// The ring holds the keys in order; its length is a power of two.
type lane struct {
	ring []eventKey
	head int
	n    int
}

// runCap bounds the run. On the simulate-cold corpus every pending key
// fits in it and the heap is never touched; a wide graph (mesh-64t peaks
// at 800 non-lane keys) keeps its bulk in the heap, where an operation is
// logarithmic instead of linear in the keys held.
const runCap = 32

// eventQueue is a short sorted run in front of a 4-ary min-heap of event
// keys, over a payload slab, plus one lane per transmission resource.
//
// The run holds at most runCap keys in descending (time, seq) order, so
// the next event is its last element. Invariant: while the heap is
// non-empty, every run key sorts before the heap's root; the next event
// is then the run's last key, or the root when the run is empty.
//
// Children of heap key i live at 4i+1..4i+4. A slab slot is taken from
// the free list on push and returned on release, so the slab never grows
// past the peak number of pending events.
type eventQueue struct {
	run   []eventKey
	keys  []eventKey
	slab  []event
	free  []int32
	lanes []lane
}

// newEventQueue preallocates room for n pending events and sets up the
// given number of lanes, numbered 1..lanes.
func newEventQueue(n, lanes int) eventQueue {
	return eventQueue{
		run:   make([]eventKey, 0, runCap+1),
		keys:  make([]eventKey, 0, n),
		slab:  make([]event, 0, n),
		lanes: make([]lane, lanes),
	}
}

// empty reports whether no event is pending. Every non-empty lane has its
// front in the run or the heap, so those two empty means empty lanes.
func (q *eventQueue) empty() bool { return len(q.run) == 0 && len(q.keys) == 0 }

// push queues an event firing at (t, seq) and returns its payload slot
// for the caller to overwrite whole; the pointer is valid until the next
// push. An event for lane ln (0 for none) joins that lane if it does not
// sort before the lane's tail; otherwise, and for ln 0, its key is added
// to the run or the heap. The guard keeps every lane sorted whatever its
// producer does, so the dequeue order never depends on a link's
// transfers completing in order.
func (q *eventQueue) push(t float64, seq uint64, ln int32) *event {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, event{})
	}
	k := eventKey{time: t, seq: seq, slot: slot}
	if ln > 0 {
		l := &q.lanes[ln-1]
		if l.n == 0 || !k.before(&l.ring[(l.head+l.n-1)&(len(l.ring)-1)]) {
			k.lane = ln
			l.append(k)
			if l.n > 1 {
				// Only the lane's front is in the run or the heap.
				return &q.slab[slot]
			}
		}
	}
	q.add(k)
	return &q.slab[slot]
}

// add queues a key that is not behind a lane front: a fresh event, or a
// lane's new front. A key that does not sort before the heap's root goes
// to the heap. Any other is inserted into the run from the back; if that
// overflows the run, its latest key moves to the heap, where it sorts
// before every key and becomes the root.
func (q *eventQueue) add(k eventKey) {
	if len(q.keys) > 0 && !k.before(&q.keys[0]) {
		q.heapPush(k)
		return
	}
	q.run = append(q.run, k)
	i := len(q.run) - 1
	for i > 0 && q.run[i-1].before(&k) {
		q.run[i] = q.run[i-1]
		i--
	}
	q.run[i] = k
	if len(q.run) > runCap {
		late := q.run[0]
		q.run = append(q.run[:0], q.run[1:]...)
		q.heapPush(late)
	}
}

// heapPush adds k to the heap, sifting the hole up instead of swapping
// so each level costs one key copy.
func (q *eventQueue) heapPush(k eventKey) {
	q.keys = append(q.keys, k)
	i := len(q.keys) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !k.before(&q.keys[p]) {
			break
		}
		q.keys[i] = q.keys[p]
		i = p
	}
	q.keys[i] = k
}

// append adds a key at the lane's tail, doubling the ring when full.
func (l *lane) append(k eventKey) {
	if l.n == len(l.ring) {
		ring := make([]eventKey, max(8, 2*len(l.ring)))
		for i := 0; i < l.n; i++ {
			ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
		}
		l.ring, l.head = ring, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = k
	l.n++
}

// advance drops the lane's front and reports its new front, if any.
func (l *lane) advance() (eventKey, bool) {
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	if l.n == 0 {
		return eventKey{}, false
	}
	return l.ring[l.head], true
}

// pop removes the next event's key and returns it: the run's last key,
// or the heap's root when the run is empty. Its slab slot stays taken
// until release, so the caller can dispatch the event where it lies.
// When the next event is a lane's front, the lane's next key is added;
// on the heap path it replaces the root with one sift-down, which keeps
// the invariant because the run is empty.
func (q *eventQueue) pop() eventKey {
	if n := len(q.run) - 1; n >= 0 {
		top := q.run[n]
		q.run = q.run[:n]
		if top.lane > 0 {
			if next, ok := q.lanes[top.lane-1].advance(); ok {
				q.add(next)
			}
		}
		return top
	}
	top := q.keys[0]
	if top.lane > 0 {
		if next, ok := q.lanes[top.lane-1].advance(); ok {
			q.siftDown(next)
			return top
		}
	}
	n := len(q.keys) - 1
	last := q.keys[n]
	q.keys = q.keys[:n]
	if n > 0 {
		q.siftDown(last)
	}
	return top
}

// siftDown places k at the root's hole and moves it down to its place.
func (q *eventQueue) siftDown(k eventKey) {
	n := len(q.keys)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if q.keys[j].before(&q.keys[m]) {
				m = j
			}
		}
		if !q.keys[m].before(&k) {
			break
		}
		q.keys[i] = q.keys[m]
		i = m
	}
	q.keys[i] = k
}

// release frees a popped event's slab slot. The slot is not zeroed: every
// schedule overwrites the whole payload, and a payload holds indices, not
// pointers, so a stale one keeps nothing alive.
func (q *eventQueue) release(slot int32) {
	q.free = append(q.free, slot)
}

// pending returns every pending event's key, run, heap and lanes
// together, in (time, seq) order — the order a checkpoint records them in.
func (q *eventQueue) pending() []eventKey {
	keys := append(append([]eventKey(nil), q.run...), q.keys...)
	for i := range q.lanes {
		l := &q.lanes[i]
		// The front is in the run or the heap already.
		for j := 1; j < l.n; j++ {
			keys = append(keys, l.ring[(l.head+j)&(len(l.ring)-1)])
		}
	}
	slices.SortFunc(keys, func(a, b eventKey) int {
		if a.before(&b) {
			return -1
		}
		return 1
	})
	return keys
}

// load replaces the queue's contents with keys listed in heap order and
// their payloads, as a checkpoint records them: keys[i] names slab slot i.
// A checkpoint lists events sorted, and a sorted array is a valid heap
// (checkpoints from before lanes list a heap array, also valid); the run
// and every lane start empty.
func (q *eventQueue) load(keys []eventKey, evs []event) {
	q.run = q.run[:0]
	q.keys = keys
	q.slab = evs
	q.free = q.free[:0]
	for i := range q.lanes {
		q.lanes[i] = lane{}
	}
}

// Events is the number of events the run has executed; a resumed
// simulator continues the interrupted run's count.
func (s *Simulator) Events() uint64 { return s.processed }

// PeakPending is the most events the queue has held at once since New or
// Resume, run, heap and lanes together, counting the one being dispatched:
// the payload slab grows only past that peak.
func (s *Simulator) PeakPending() int { return len(s.events.slab) }

// schedule queues an event at time t, offered to lane ln (0 for none),
// stamped with the next sequence number, and returns its payload slot,
// which the caller overwrites whole at once (`*s.schedule(t, ln) =
// event{...}`). The sequence counter is the determinism anchor:
// equal-time events fire in schedule order, exactly like the seed engine.
func (s *Simulator) schedule(t float64, ln int32) *event {
	s.seq++
	return s.events.push(t, s.seq, ln)
}

// dispatch executes one popped event. s.now has already been advanced to
// the event's timestamp.
func (s *Simulator) dispatch(e *event) {
	switch e.kind {
	case evArriveAt:
		s.arriveAt(s.node(e.node), e.from, e.pkt)
	case evServiceDone:
		s.serviceDone(s.node(e.node), e.pkt, e.a, e.b)
	case evArrival:
		s.arrivalPump(e.a, e.flow)
	case evFault:
		s.applyFault(s.cfg.Faults[e.idx], e.idx)
	case evLinkRestore:
		s.restoreLink(s.cfg.Faults[e.idx].Link)
	case evStallRecover:
		s.recoverStall(s.node(e.node))
	case evWarmup:
		s.rebaseWindows()
	}
}
