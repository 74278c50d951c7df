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
//   - the pending set is a 4-ary min-heap of 24-byte {time, seq, slot}
//     keys over a payload slab: sifts compare and move keys only, and an
//     event's payload is copied once in (push) and once out (pop). Slab
//     slots recycle through a free list, so the slab never grows past the
//     peak number of pending events. The 4-ary shape has shallower sift
//     paths than a binary heap (log₄ vs log₂ levels), and a node's four
//     children share cache lines;
//   - the event's action is a small kind tag plus typed operands
//     dispatched through one switch, replacing per-event closures;
//   - packet records recycle through a free list (sim.go), and per-vertex
//     queue storage is preallocated ring buffers sized from the vertex's
//     configured queue capacity (queues.go).
//
// With observability off (Config.Spans nil) the steady-state loop
// allocates nothing per event; TestSteadyStateAllocFree pins that.
//
// Determinism contract: the heap orders events by (time, seq) where seq is
// the strictly increasing schedule counter, exactly the total order the
// seed engine used — ties cannot exist, so any heap shape dequeues the
// identical sequence and results stay byte-identical (enforced by the
// golden-digest suite and FuzzEventQueue's container/heap oracle).

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

// event is one scheduled action, stored by value in the queue's payload
// slab. The operand fields are kind-specific:
//
//	evArrival:      a = packet size, flow = flow id (time is the arrival)
//	evArriveAt:     node = destination, from = upstream vertex (nil for a
//	                fresh ingress arrival), pkt
//	evServiceDone:  node = server, pkt, a = queueing wait, b = service start
//	evFault:        idx into cfg.Faults
//	evLinkRestore:  idx into cfg.Faults (the LinkDegrade being undone)
//	evStallRecover: node = stalled vertex, idx = originating fault
//	evWarmup:       no operands
type event struct {
	time float64
	seq  uint64
	node *node
	from *node
	pkt  *packet
	a, b float64
	flow uint64
	idx  int32
	kind eventKind
}

// eventKey is one heap entry: the (time, seq) ordering key and the slab
// slot holding the event's payload. Sifts move these 24-byte keys, never
// the payload.
type eventKey struct {
	time float64
	seq  uint64
	slot int32
}

// before is the scheduling order: time, then schedule sequence. seq is
// unique per event, so this is a total order.
func (k *eventKey) before(o *eventKey) bool {
	if k.time != o.time {
		return k.time < o.time
	}
	return k.seq < o.seq
}

// eventQueue is a 4-ary min-heap of event keys over a payload slab.
// Children of key i live at 4i+1..4i+4; keys[0] is the next event to
// fire. A slab slot is taken from the free list on push and returned on
// pop, so the slab never grows past the peak number of pending events.
type eventQueue struct {
	keys []eventKey
	slab []event
	free []int32
}

// newEventQueue preallocates room for n pending events.
func newEventQueue(n int) eventQueue {
	return eventQueue{keys: make([]eventKey, 0, n), slab: make([]event, 0, n)}
}

func (q *eventQueue) len() int { return len(q.keys) }

// next is the earliest pending fire time; the queue must be non-empty.
func (q *eventQueue) next() float64 { return q.keys[0].time }

// push stores the event in a free slab slot and inserts its key, sifting
// the hole up instead of swapping so each level costs one key copy.
func (q *eventQueue) push(e *event) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[slot] = *e
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, *e)
	}
	k := eventKey{time: e.time, seq: e.seq, slot: slot}
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

// pop removes the minimum event and writes it to out. The vacated slab
// slot is zeroed so packet/node pointers don't outlive their events.
func (q *eventQueue) pop(out *event) {
	slot := q.keys[0].slot
	*out = q.slab[slot]
	q.slab[slot] = event{}
	q.free = append(q.free, slot)
	n := len(q.keys) - 1
	last := q.keys[n]
	q.keys = q.keys[:n]
	if n == 0 {
		return
	}
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
		if !q.keys[m].before(&last) {
			break
		}
		q.keys[i] = q.keys[m]
		i = m
	}
	q.keys[i] = last
}

// load replaces the queue's contents with events listed in key order, as
// a checkpoint records them: event i takes slab slot i and key position
// i, so the restored heap has the identical shape.
func (q *eventQueue) load(evs []event) {
	q.slab = evs
	q.free = q.free[:0]
	q.keys = make([]eventKey, len(evs))
	for i := range evs {
		q.keys[i] = eventKey{time: evs[i].time, seq: evs[i].seq, slot: int32(i)}
	}
}

// schedule stamps the event with the fire time and the next sequence
// number and inserts it. The sequence counter is the determinism anchor:
// equal-time events fire in schedule order, exactly like the seed engine.
// Sharded domains stamp an intrinsic partition-invariant key instead (see
// shard.go), so the (time, seq) order is identical at every shard count.
func (s *Simulator) schedule(t float64, e event) {
	if s.sh != nil {
		e.time = t
		e.seq = s.intrinsicKey(&e)
		s.events.push(&e)
		return
	}
	s.seq++
	e.time = t
	e.seq = s.seq
	s.events.push(&e)
}

// dispatch executes one popped event. s.now has already been advanced to
// the event's timestamp.
func (s *Simulator) dispatch(e *event) {
	switch e.kind {
	case evArriveAt:
		s.arriveAt(e.node, e.from, e.pkt)
	case evServiceDone:
		s.serviceDone(e.node, e.pkt, e.a, e.b)
	case evArrival:
		s.arrivalPump(e.a, e.flow)
	case evFault:
		s.applyFault(s.cfg.Faults[e.idx], e.idx)
	case evLinkRestore:
		s.restoreLink(s.cfg.Faults[e.idx].Link)
	case evStallRecover:
		s.recoverStall(e.node)
	case evWarmup:
		s.rebaseWindows()
	}
}
