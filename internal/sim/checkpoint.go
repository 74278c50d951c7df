package sim

// Checkpoint/resume for long simulations (ISSUE 6 tentpole). A Checkpoint
// is a complete, serializable snapshot of a run taken between two events:
// the event heap (in array order, so the restored heap has the identical
// shape), every in-flight packet, per-vertex queue contents and windowed
// statistics, shared-link occupancy, the measurement accumulators, and —
// the subtle part — the positions of both RNG streams.
//
// math/rand exposes no way to serialize generator state, so the simulator
// counts instead: the engine RNG runs on a countingSource that tallies
// every underlying state advance, and the traffic generator's position is
// its packet sequence number. Resume rebuilds both from the seed and
// fast-forwards — the engine source by replaying N raw draws, the
// generator by replaying N Next() calls — landing on the exact stream
// state the snapshot captured. Every subsequent draw, event ordering and
// statistic is then bit-identical to an uninterrupted run, which the
// golden-digest harness (internal/simtest) enforces in
// TestCheckpointResumeByteIdentical.
//
// Limitations: custom Config.ServiceTime hooks must derive all randomness
// from the *rand.Rand they are handed (stateless otherwise) — private
// generator state inside a hook is invisible to the snapshot. Config.
// Metrics/Spans/Trace observers attached to a resumed run see only the
// post-resume portion; Result statistics are unaffected because they are
// restored from the snapshot's accumulators.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"

	"lognic/internal/traffic"
)

// countingSource wraps math/rand's seeded source and counts state
// advances. It implements rand.Source64, so rand.Rand takes the identical
// code paths (and therefore produces the identical draw sequence) it
// takes over the bare source. Each Int63 or Uint64 call advances the
// underlying generator by exactly one step, so a single counter positions
// the stream.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func newCountingSource(seed int64) *countingSource {
	// rand.NewSource's concrete type has implemented Source64 since Go
	// 1.8; the assertion is load-bearing for draw-for-draw equivalence.
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// skip fast-forwards a freshly seeded source by n raw draws.
func (c *countingSource) skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.src.Uint64()
	}
	c.n = n
}

// checkpointVersion guards the gob schema: a checkpoint written by a
// different engine revision fails Resume loudly instead of silently
// restoring mismatched state.
const checkpointVersion = 1

// Checkpoint is a serializable snapshot of a paused simulation. Build one
// with Config.CheckpointEvery/CheckpointSink (periodic) and restore it
// with Resume. All fields are exported for gob; treat the contents as
// opaque.
type Checkpoint struct {
	Version  int
	Seed     int64
	Duration float64

	Now       float64
	Seq       uint64 // event schedule counter (determinism anchor)
	Processed uint64 // events executed so far
	PacketSeq uint64 // span track ids handed out

	RNGDraws   uint64 // engine source advances
	GenPackets uint64 // traffic generator Next() calls

	Packets []PacketState
	Events  []EventState
	Nodes   []NodeState
	Links   []LinkState

	OfferedPackets   int
	OfferedBytes     float64
	DeliveredPackets int
	DeliveredBytes   float64
	DroppedMeasured  int
	LatencyValues    []float64
	LatencySum       float64
	Faults           FaultStats
}

// PacketState is one live packet (queued or in flight between events).
type PacketState struct {
	ID      uint64
	Size    float64
	Born    float64
	Arrived float64
	Flow    uint64
	Measure bool
	Retries int
}

// EventState is one heap entry with pointers replaced by names/indices.
type EventState struct {
	Time float64
	Seq  uint64
	Node string // vertex name, "" when unset
	Pkt  int32  // index into Packets, -1 when unset
	Link string // link name, "" when unset
	From string
	A, B float64
	Flow uint64
	Idx  int32
	Kind uint8
}

// TWState is a timeWeighted integrator's state.
type TWState struct {
	FirstTime float64
	LastTime  float64
	LastValue float64
	Integral  float64
	Started   bool
}

// QueuedState is one waiting request.
type QueuedState struct {
	Pkt      int32
	Enqueued float64
}

// QueueState captures a vertex's input-queue organization contents.
// Shared is set for the virtual-shared-queue organization; PerEdge (one
// FIFO per upstream, aligned with Upstreams) plus the WRR scheduler
// position for the per-edge organization.
type QueueState struct {
	Shared    []QueuedState
	Upstreams []string
	PerEdge   [][]QueuedState
	Ptr       int
	Grants    int
}

// NodeState is one vertex's runtime state.
type NodeState struct {
	Name         string
	Busy         int
	Down         int
	StalledUntil float64
	Arrivals     int
	Served       int
	Dropped      int
	WaitSum      float64
	BusyTW       TWState
	QueueTW      TWState
	DownTW       TWState
	Queue        QueueState
}

// LinkState is one transmission resource's occupancy and window.
type LinkState struct {
	Name      string
	Bandwidth float64
	Healthy   float64
	BusyUntil float64
	BusySum   float64
	BytesSum  float64
	WinStart  float64
	BusyAtWin float64
}

// Encode serializes the checkpoint (gob: float64 bit patterns survive the
// round trip exactly).
func (c *Checkpoint) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		return nil, fmt.Errorf("sim: encoding checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeCheckpoint deserializes an Encode'd checkpoint.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&c); err != nil {
		return nil, fmt.Errorf("sim: decoding checkpoint: %w", err)
	}
	if c.Version != checkpointVersion {
		return nil, fmt.Errorf("sim: checkpoint version %d, engine speaks %d", c.Version, checkpointVersion)
	}
	return &c, nil
}

func twState(t timeWeighted) TWState {
	return TWState{
		FirstTime: t.firstTime, LastTime: t.lastTime,
		LastValue: t.lastValue, Integral: t.integral, Started: t.started,
	}
}

func twRestore(s TWState) timeWeighted {
	return timeWeighted{
		firstTime: s.FirstTime, lastTime: s.LastTime,
		lastValue: s.LastValue, integral: s.Integral, started: s.Started,
	}
}

// snapshot captures the complete run state between two events.
func (s *Simulator) snapshot() *Checkpoint {
	ck := &Checkpoint{
		Version:          checkpointVersion,
		Seed:             s.cfg.Seed,
		Duration:         s.cfg.Duration,
		Now:              s.now,
		Seq:              s.seq,
		Processed:        s.processed,
		PacketSeq:        s.packetSeq,
		RNGDraws:         s.rngSrc.n,
		GenPackets:       s.gen.Seq(),
		OfferedPackets:   s.offeredPackets,
		OfferedBytes:     s.offeredBytes,
		DeliveredPackets: s.deliveredPackets,
		DeliveredBytes:   s.deliveredBytes,
		DroppedMeasured:  s.droppedMeasured,
		LatencyValues:    append([]float64(nil), s.latencies.values...),
		LatencySum:       s.latencies.sum,
		Faults:           s.faults,
	}

	// Packet table: every live packet is reachable from the event heap
	// (in-service and in-transfer packets ride evServiceDone/evArriveAt
	// events) or a vertex queue. The free list holds only dead records.
	index := map[*packet]int32{}
	register := func(p *packet) int32 {
		if p == nil {
			return -1
		}
		if i, ok := index[p]; ok {
			return i
		}
		i := int32(len(ck.Packets))
		index[p] = i
		ck.Packets = append(ck.Packets, PacketState{
			ID: p.id, Size: p.size, Born: p.born, Arrived: p.arrived,
			Flow: p.flow, Measure: p.measure, Retries: p.retries,
		})
		return i
	}

	// Events in heap-array (key) order, so Resume rebuilds the same shape.
	ck.Events = make([]EventState, s.events.len())
	for i, k := range s.events.keys {
		e := &s.events.slab[k.slot]
		es := EventState{
			Time: e.time, Seq: e.seq, Pkt: register(e.pkt),
			Node: e.node.name(), From: e.from.name(), A: e.a, B: e.b, Flow: e.flow,
			Idx: e.idx, Kind: uint8(e.kind),
		}
		if e.kind == evLinkRestore {
			// The link is named by its fault. From repeats the name:
			// checkpoint format version 1 records it there.
			es.Link = s.cfg.Faults[e.idx].Link
			es.From = es.Link
		}
		ck.Events[i] = es
	}

	ck.Nodes = make([]NodeState, 0, len(s.order))
	for _, name := range s.order {
		n := s.nodes[name]
		ns := NodeState{
			Name: name, Busy: n.busy, Down: n.down,
			StalledUntil: n.stalledUntil,
			Arrivals:     n.arrivals, Served: n.served, Dropped: n.dropped,
			WaitSum: n.waitSum,
			BusyTW:  twState(n.busyTW), QueueTW: twState(n.queueTW), DownTW: twState(n.downTW),
		}
		switch q := n.queue.(type) {
		case *sharedQueue:
			ns.Queue.Shared = make([]QueuedState, 0, q.n)
			for i := 0; i < q.n; i++ {
				e := q.buf[(q.head+i)&(len(q.buf)-1)]
				ns.Queue.Shared = append(ns.Queue.Shared, QueuedState{Pkt: register(e.p), Enqueued: e.enqueued})
			}
		case *wrrQueues:
			ns.Queue.Upstreams = append([]string(nil), q.order...)
			ns.Queue.PerEdge = make([][]QueuedState, len(q.queues))
			for qi := range q.queues {
				r := &q.queues[qi]
				for i := 0; i < r.n; i++ {
					e := r.buf[(r.head+i)&(len(r.buf)-1)]
					ns.Queue.PerEdge[qi] = append(ns.Queue.PerEdge[qi], QueuedState{Pkt: register(e.p), Enqueued: e.enqueued})
				}
			}
			ns.Queue.Ptr = q.ptr
			ns.Queue.Grants = q.grants
		}
		ck.Nodes = append(ck.Nodes, ns)
	}

	for _, name := range sortedKeys(s.links) {
		l := s.links[name]
		ck.Links = append(ck.Links, LinkState{
			Name: name, Bandwidth: l.bandwidth, Healthy: l.healthy,
			BusyUntil: l.busyUntil, BusySum: l.busySum, BytesSum: l.bytesSum,
			WinStart: l.winStart, BusyAtWin: l.busyAtWin,
		})
	}
	return ck
}

// Checkpoint returns a snapshot of the simulator's current state. It is
// only valid between events — before RunContext starts, or from inside a
// CheckpointSink; calling it from a Trace/Spans hook mid-dispatch
// captures a half-applied event.
func (s *Simulator) Checkpoint() (*Checkpoint, error) {
	if s.plan != nil {
		// A multi-domain run has no serial-equivalent mid-run snapshot:
		// per-domain clocks straddle the synchronization window. Typed
		// error instead of a corrupt snapshot; see ErrShardedCheckpoint.
		return nil, fmt.Errorf("sim: checkpoint of a %d-domain run: %w", len(s.plan.domains), ErrShardedCheckpoint)
	}
	if s.gen == nil {
		return nil, errors.New("sim: checkpoint before the run started")
	}
	return s.snapshot(), nil
}

// Resume rebuilds a simulator from a checkpoint taken by an earlier run
// of the same Config. The caller must pass a Config equivalent to the
// original (same graph, hardware, profile, seed, duration, policies);
// Resume validates what it can — seed, duration, vertex and link names,
// queue organization — and restores the snapshot on top of the freshly
// built structure. RunContext then continues the run and produces a
// Result byte-identical to an uninterrupted run's.
func Resume(cfg Config, ck *Checkpoint) (*Simulator, error) {
	if ck == nil {
		return nil, errors.New("sim: nil checkpoint")
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("sim: checkpoint version %d, engine speaks %d", ck.Version, checkpointVersion)
	}
	if ck.Seed != cfg.Seed {
		return nil, fmt.Errorf("sim: checkpoint seed %d does not match config seed %d", ck.Seed, cfg.Seed)
	}
	if ck.Duration != cfg.Duration {
		return nil, fmt.Errorf("sim: checkpoint duration %v does not match config duration %v", ck.Duration, cfg.Duration)
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if s.plan != nil {
		return nil, fmt.Errorf("sim: resume onto a %d-domain run: %w", len(s.plan.domains), ErrShardedCheckpoint)
	}

	// Stream positions: replay the engine source's raw draws and the
	// traffic generator's packets. Both are pure functions of the seed,
	// so the fast-forwarded state equals the snapshotted state exactly.
	s.rngSrc.skip(ck.RNGDraws)
	gen, err := traffic.NewGenerator(cfg.Profile, SeedStream(cfg.Seed, trafficStreamTag))
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < ck.GenPackets; i++ {
		gen.Next()
	}
	s.gen = gen

	// Packet table.
	packets := make([]*packet, len(ck.Packets))
	for i, ps := range ck.Packets {
		packets[i] = &packet{
			id: ps.ID, size: ps.Size, born: ps.Born, arrived: ps.Arrived,
			flow: ps.Flow, measure: ps.Measure, retries: ps.Retries,
		}
	}
	pkt := func(i int32) (*packet, error) {
		if i < 0 {
			return nil, nil
		}
		if int(i) >= len(packets) {
			return nil, fmt.Errorf("sim: checkpoint packet index %d out of range", i)
		}
		return packets[i], nil
	}

	// Node state and queue contents.
	for _, ns := range ck.Nodes {
		n, ok := s.nodes[ns.Name]
		if !ok {
			return nil, fmt.Errorf("sim: checkpoint names unknown vertex %q", ns.Name)
		}
		n.busy = ns.Busy
		n.down = ns.Down
		n.stalledUntil = ns.StalledUntil
		n.arrivals = ns.Arrivals
		n.served = ns.Served
		n.dropped = ns.Dropped
		n.waitSum = ns.WaitSum
		n.busyTW = twRestore(ns.BusyTW)
		n.queueTW = twRestore(ns.QueueTW)
		n.downTW = twRestore(ns.DownTW)
		switch q := n.queue.(type) {
		case *sharedQueue:
			if ns.Queue.PerEdge != nil {
				return nil, fmt.Errorf("sim: checkpoint has per-edge queues at %q but config uses the shared organization", ns.Name)
			}
			for _, e := range ns.Queue.Shared {
				p, err := pkt(e.Pkt)
				if err != nil {
					return nil, err
				}
				q.ring.push(queued{p: p, enqueued: e.Enqueued})
			}
		case *wrrQueues:
			if ns.Queue.Shared != nil {
				return nil, fmt.Errorf("sim: checkpoint has a shared queue at %q but config uses per-edge queues", ns.Name)
			}
			if len(ns.Queue.Upstreams) != len(q.order) {
				return nil, fmt.Errorf("sim: checkpoint has %d upstream queues at %q, config builds %d",
					len(ns.Queue.Upstreams), ns.Name, len(q.order))
			}
			for i, up := range ns.Queue.Upstreams {
				if up != q.order[i] {
					return nil, fmt.Errorf("sim: checkpoint upstream %q at %q[%d], config has %q", up, ns.Name, i, q.order[i])
				}
				for _, e := range ns.Queue.PerEdge[i] {
					p, err := pkt(e.Pkt)
					if err != nil {
						return nil, err
					}
					q.queues[i].push(queued{p: p, enqueued: e.Enqueued})
					q.total++
				}
			}
			if ns.Queue.Ptr < 0 || ns.Queue.Ptr >= len(q.queues) {
				return nil, fmt.Errorf("sim: checkpoint WRR pointer %d out of range at %q", ns.Queue.Ptr, ns.Name)
			}
			q.ptr = ns.Queue.Ptr
			q.grants = ns.Queue.Grants
		}
	}

	// Link occupancy.
	for _, ls := range ck.Links {
		l, ok := s.links[ls.Name]
		if !ok {
			return nil, fmt.Errorf("sim: checkpoint names unknown link %q", ls.Name)
		}
		l.bandwidth = ls.Bandwidth
		l.healthy = ls.Healthy
		l.busyUntil = ls.BusyUntil
		l.busySum = ls.BusySum
		l.bytesSum = ls.BytesSum
		l.winStart = ls.WinStart
		l.busyAtWin = ls.BusyAtWin
	}

	// Event heap, restored in array order: the serialized slice was a
	// valid heap, and an identical array replays the identical pop
	// sequence (the (time, seq) order is total either way).
	vertex := func(i int, name string) (*node, error) {
		if name == "" {
			return nil, nil
		}
		n, ok := s.nodes[name]
		if !ok {
			return nil, fmt.Errorf("sim: checkpoint event %d names unknown vertex %q", i, name)
		}
		return n, nil
	}
	evs := make([]event, len(ck.Events))
	for i, es := range ck.Events {
		e := &evs[i]
		*e = event{
			time: es.Time, seq: es.Seq,
			a: es.A, b: es.B, flow: es.Flow, idx: es.Idx, kind: eventKind(es.Kind),
		}
		if e.pkt, err = pkt(es.Pkt); err != nil {
			return nil, err
		}
		if e.node, err = vertex(i, es.Node); err != nil {
			return nil, err
		}
		if es.Link != "" {
			if _, ok := s.links[es.Link]; !ok {
				return nil, fmt.Errorf("sim: checkpoint event %d names unknown link %q", i, es.Link)
			}
		}
		switch e.kind {
		case evFault:
			if e.idx < 0 || int(e.idx) >= len(cfg.Faults) {
				return nil, fmt.Errorf("sim: checkpoint event %d fault index %d out of range", i, e.idx)
			}
		case evLinkRestore:
			// From echoes the link name here (see snapshot); the restore
			// finds its link through the fault it undoes.
			if e.idx < 0 || int(e.idx) >= len(cfg.Faults) {
				return nil, fmt.Errorf("sim: checkpoint event %d link-restore fault index %d out of range", i, e.idx)
			}
			if f := cfg.Faults[e.idx]; f.Kind != LinkDegrade || f.Link != es.Link {
				return nil, fmt.Errorf("sim: checkpoint event %d restores link %q, but fault %d is %v on %q",
					i, es.Link, e.idx, f.Kind, f.Link)
			}
		default:
			if e.from, err = vertex(i, es.From); err != nil {
				return nil, err
			}
		}
	}
	s.events.load(evs)

	s.now = ck.Now
	s.seq = ck.Seq
	s.processed = ck.Processed
	s.lastCkpt = ck.Processed
	s.packetSeq = ck.PacketSeq
	s.offeredPackets = ck.OfferedPackets
	s.offeredBytes = ck.OfferedBytes
	s.deliveredPackets = ck.DeliveredPackets
	s.deliveredBytes = ck.DeliveredBytes
	s.droppedMeasured = ck.DroppedMeasured
	s.latencies = sampleSet{values: append([]float64(nil), ck.LatencyValues...), sum: ck.LatencySum}
	s.faults = ck.Faults
	s.faults.EngineDownTime = nil // accumulator never aliases a result map
	s.resumed = true
	return s, nil
}
