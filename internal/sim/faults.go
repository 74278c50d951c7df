package sim

// This file implements fault injection for the simulator: timed hardware
// degradations applied as first-class events in the event heap. Real
// SmartNIC deployments lose accelerator engines, see links flap, and
// suffer transient firmware stalls (the partial-failure regimes the
// off-path DPU measurement studies document); a performance model that can
// only answer "which component bottlenecks first" for healthy hardware
// misses the operating points operators care most about. The analytical
// counterpart is core.Degrade, which folds a steady-state fault scenario
// into the model parameters; TestDegradedCrossValidation checks the two
// agree.

import (
	"fmt"
	"math"
	"sort"

	"lognic/internal/core"
)

// FaultKind classifies a fault injection.
type FaultKind int

// Fault kinds.
const (
	// EngineDown removes Count of a vertex's D parallel engines at Time.
	// In-flight services finish, but the lost engines accept no new work
	// until a matching EngineUp restores them.
	EngineDown FaultKind = iota
	// EngineUp restores Count previously-lost engines of a vertex.
	EngineUp
	// LinkDegrade scales a transmission resource's bandwidth by Factor
	// over [Time, Time+Duration) — or permanently when Duration is zero.
	// Link names: "interface", "memory", or "from->to" for an edge with a
	// characterized dedicated bandwidth.
	LinkDegrade
	// VertexStall freezes a vertex's engines over [Time, Time+Duration):
	// no new service starts; arrivals queue (and overflow) as usual.
	VertexStall
)

// String names the kind.
func (k FaultKind) String() string {
	switch k {
	case EngineDown:
		return "engine-down"
	case EngineUp:
		return "engine-up"
	case LinkDegrade:
		return "link-degrade"
	case VertexStall:
		return "vertex-stall"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Fault is one timed injection.
type Fault struct {
	// Kind classifies the fault.
	Kind FaultKind
	// Time is the injection timestamp (simulated seconds).
	Time float64
	// Vertex names the target vertex (EngineDown, EngineUp, VertexStall).
	Vertex string
	// Link names the target transmission resource (LinkDegrade):
	// "interface", "memory", or "from->to" for a characterized edge.
	Link string
	// Count is the number of engines affected (EngineDown, EngineUp).
	// Defaults to 1.
	Count int
	// Factor scales the link bandwidth (LinkDegrade). Must be positive;
	// values below 1 degrade, values above 1 would model an upgrade.
	Factor float64
	// Duration bounds the fault window (LinkDegrade, VertexStall).
	// Zero means permanent for LinkDegrade; VertexStall requires a
	// positive window.
	Duration float64
}

// FaultSchedule is a set of timed injections. Order does not matter;
// simultaneous faults apply in schedule order.
type FaultSchedule []Fault

// validate checks the schedule against the simulator's graph and links.
func (fs FaultSchedule) validate(s *Simulator) error {
	for i, f := range fs {
		if f.Time < 0 || math.IsNaN(f.Time) || math.IsInf(f.Time, 0) {
			return fmt.Errorf("sim: fault %d (%s): invalid time %v", i, f.Kind, f.Time)
		}
		switch f.Kind {
		case EngineDown, EngineUp:
			if _, ok := s.byName[f.Vertex]; !ok {
				return fmt.Errorf("sim: fault %d (%s): unknown vertex %q", i, f.Kind, f.Vertex)
			}
			if f.Count < 0 {
				return fmt.Errorf("sim: fault %d (%s): negative engine count %d", i, f.Kind, f.Count)
			}
		case VertexStall:
			if _, ok := s.byName[f.Vertex]; !ok {
				return fmt.Errorf("sim: fault %d (%s): unknown vertex %q", i, f.Kind, f.Vertex)
			}
			if f.Duration <= 0 || math.IsNaN(f.Duration) || math.IsInf(f.Duration, 0) {
				return fmt.Errorf("sim: fault %d (%s): stall needs a positive duration, got %v", i, f.Kind, f.Duration)
			}
		case LinkDegrade:
			if _, ok := s.links[f.Link]; !ok {
				return fmt.Errorf("sim: fault %d (%s): unknown link %q (want \"interface\", \"memory\", or a characterized \"from->to\" edge)", i, f.Kind, f.Link)
			}
			if f.Factor <= 0 || math.IsNaN(f.Factor) || math.IsInf(f.Factor, 0) {
				return fmt.Errorf("sim: fault %d (%s): invalid factor %v", i, f.Kind, f.Factor)
			}
			if f.Duration < 0 || math.IsNaN(f.Duration) || math.IsInf(f.Duration, 0) {
				return fmt.Errorf("sim: fault %d (%s): invalid duration %v", i, f.Kind, f.Duration)
			}
		default:
			return fmt.Errorf("sim: fault %d: unknown kind %v", i, f.Kind)
		}
	}
	return nil
}

// RetryPolicy models a host re-issuing dropped requests (DMA reads,
// doorbells) to one vertex: a rejected arrival is re-presented after an
// exponentially growing backoff instead of being lost, up to MaxRetries
// attempts per packet.
type RetryPolicy struct {
	// MaxRetries bounds the re-issues per packet. Zero disables retrying.
	MaxRetries int
	// Backoff is the first re-issue delay (seconds); attempt k waits
	// Backoff·2^(k-1). A zero backoff re-presents immediately — valid,
	// but an overloaded queue then loops at one timestamp until the
	// packet's budget or the run harness watchdog ends it.
	Backoff float64
}

// validate checks one vertex's retry policy.
func (r RetryPolicy) validate(vertex string) error {
	if r.MaxRetries < 0 {
		return fmt.Errorf("sim: retry policy for %q: negative MaxRetries %d", vertex, r.MaxRetries)
	}
	if r.Backoff < 0 || math.IsNaN(r.Backoff) || math.IsInf(r.Backoff, 0) {
		return fmt.Errorf("sim: retry policy for %q: invalid backoff %v", vertex, r.Backoff)
	}
	return nil
}

// FaultStats counts fault activity over a run. All counters cover the
// whole run, not just the measurement window: faults are hardware events,
// not traffic.
type FaultStats struct {
	// EngineDownEvents .. VertexStallEvents count applied injections by
	// kind (LinkRestores and StallRecoveries count the scheduled
	// recoveries that fired).
	EngineDownEvents  int
	EngineUpEvents    int
	LinkDegradeEvents int
	LinkRestores      int
	VertexStallEvents int
	StallRecoveries   int
	// Retries counts re-issued arrivals under the retry policy;
	// RetryDrops counts packets still rejected after exhausting their
	// retry budget.
	Retries    int
	RetryDrops int
	// EngineDownTime maps vertex name to engine-seconds of lost capacity
	// (the integral of down engines over time). Only vertices that lost
	// engines appear.
	EngineDownTime map[string]float64
}

// FaultStats returns the fault activity accumulated so far, including the
// engine-seconds of capacity lost up to the current simulated time. After
// a completed run it matches Result.Faults; after an aborted run (context
// cancelled, budget or stall) it reports the injections, retries and
// down-time that fired before the abort, which a harness can use to
// attribute the partial run.
func (s *Simulator) FaultStats() FaultStats {
	fs := s.faults
	fs.EngineDownTime = nil // never alias the live accumulator's map
	for i := range s.nodes {
		n := &s.nodes[i]
		if n.downTW.started {
			if fs.EngineDownTime == nil {
				fs.EngineDownTime = map[string]float64{}
			}
			fs.EngineDownTime[n.v.Name] = n.downTW.total(s.now)
		}
	}
	return fs
}

// scheduleFaults inserts the schedule's injections (and their recoveries)
// into the event queue.
func (s *Simulator) scheduleFaults() {
	for i := range s.cfg.Faults {
		*s.schedule(s.cfg.Faults[i].Time, 0) = event{kind: evFault, idx: int32(i)}
	}
}

// applyFault executes one injection at the current simulation time. idx is
// the fault's index in the schedule: evLinkRestore finds the link it
// restores through it, and checkpoints record it on both recovery events.
func (s *Simulator) applyFault(f Fault, idx int32) {
	switch f.Kind {
	case EngineDown:
		n := s.node(s.byName[f.Vertex])
		count := f.Count
		if count == 0 {
			count = 1
		}
		n.down += count
		if n.down > n.engines {
			n.down = n.engines
		}
		n.downTW.set(s.now, float64(n.down))
		s.faults.EngineDownEvents++
		s.traceFault(TraceFaultInject, f.Vertex)
	case EngineUp:
		n := s.node(s.byName[f.Vertex])
		count := f.Count
		if count == 0 {
			count = 1
		}
		n.down -= count
		if n.down < 0 {
			n.down = 0
		}
		n.downTW.set(s.now, float64(n.down))
		s.faults.EngineUpEvents++
		s.traceFault(TraceFaultRecover, f.Vertex)
		s.drain(n)
	case LinkDegrade:
		l := s.links[f.Link]
		l.bandwidth = l.healthy * f.Factor
		s.faults.LinkDegradeEvents++
		s.traceFault(TraceFaultInject, f.Link)
		if f.Duration > 0 {
			*s.schedule(s.now+f.Duration, 0) = event{kind: evLinkRestore, idx: idx}
		}
	case VertexStall:
		n := s.node(s.byName[f.Vertex])
		until := s.now + f.Duration
		if until > n.stalledUntil {
			n.stalledUntil = until
		}
		s.faults.VertexStallEvents++
		s.traceFault(TraceFaultInject, f.Vertex)
		*s.schedule(until, 0) = event{kind: evStallRecover, node: n.id, idx: idx}
	}
}

// restoreLink ends a timed LinkDegrade of the named link: the
// evLinkRestore action.
func (s *Simulator) restoreLink(name string) {
	l := s.links[name]
	l.bandwidth = l.healthy
	s.faults.LinkRestores++
	s.traceFault(TraceFaultRecover, name)
}

// recoverStall ends a VertexStall window: the evStallRecover action.
func (s *Simulator) recoverStall(n *node) {
	if s.now < n.stalledUntil {
		return // a longer overlapping stall superseded this one
	}
	s.faults.StallRecoveries++
	s.traceFault(TraceFaultRecover, n.v.Name)
	s.drain(n)
}

// canStart reports whether the vertex has a healthy idle engine.
func (s *Simulator) canStart(n *node) bool {
	return n.busy < n.engines-n.down && s.now >= n.stalledUntil
}

// drain dispatches queued work onto engines freed by a recovery.
func (s *Simulator) drain(n *node) {
	for s.canStart(n) {
		q, ok := n.queue.pop()
		if !ok {
			return
		}
		n.queueTW.set(s.now, float64(n.queue.length()))
		s.startService(n, q.p, s.now-q.enqueued)
	}
}

// traceFault emits a packet-less trace event for a fault transition.
func (s *Simulator) traceFault(kind TraceKind, where string) {
	if s.cfg.Trace == nil {
		return
	}
	s.cfg.Trace(TraceEvent{Kind: kind, Time: s.now, Vertex: where})
}

// PermanentFaults converts a steady-state degradation scenario (the input
// of core.Degrade) into a schedule of time-zero, never-recovered faults,
// so the simulator can measure the operating point the degraded model
// predicts.
func PermanentFaults(d core.Degradation) FaultSchedule {
	var fs FaultSchedule
	for _, v := range sortedKeys(d.EnginesDown) {
		fs = append(fs, Fault{Kind: EngineDown, Vertex: v, Count: d.EnginesDown[v]})
	}
	for _, l := range sortedKeys(d.LinkFactors) {
		fs = append(fs, Fault{Kind: LinkDegrade, Link: l, Factor: d.LinkFactors[l]})
	}
	return fs
}

// sortedKeys returns a map's keys in sorted order, for deterministic
// schedules.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
