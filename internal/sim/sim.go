// Package sim is a packet-level discrete-event simulator of a SmartNIC
// executing a LogNIC execution graph. It is this repository's substitute
// for the physical SmartNICs the paper measures (LiquidIO-II, BlueField-2,
// Stingray, PANIC): every "Measured" series in the evaluation is produced
// by this simulator, and the analytical model in internal/core is validated
// against it.
//
// The simulator realizes the same physical structure the model abstracts:
// IP blocks with a finite logical input queue and D parallel engines,
// shared interface/memory bandwidth modeled as FIFO transmission resources,
// per-edge characterized links, computation-transfer overheads, and
// ingress/egress engines. Service times default to exponential
// (matching the paper's M/M/1/N assumption) around the mean the execution
// graph implies, and can be overridden per vertex — internal/nvme uses that
// hook to model an SSD with IO-depth-dependent behavior and background GC.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"lognic/internal/core"
	"lognic/internal/obs"
	"lognic/internal/traffic"
)

// Typed run-harness errors. RunContext returns these (wrapped with run
// detail) instead of hanging on pathological configs.
var (
	// ErrBudgetExceeded reports that the run processed more events than
	// Config.MaxEvents allows.
	ErrBudgetExceeded = errors.New("sim: event budget exceeded")
	// ErrStalled reports that the progress watchdog saw the simulation
	// clock stop advancing — an event storm at one timestamp, such as a
	// zero-backoff retry loop against a permanently full queue.
	ErrStalled = errors.New("sim: simulation clock stalled")
)

// ServiceTimer computes the service time (seconds) for one request at one
// vertex. size is the packet/request size in bytes; outstanding is the
// number of requests currently queued or in service at the vertex before
// this one starts (an IO-depth proxy for opaque IPs like SSDs).
type ServiceTimer func(size float64, outstanding int, rng *rand.Rand) float64

// Config describes one simulation run.
type Config struct {
	// Graph is the execution graph to run.
	Graph *core.Graph
	// Hardware supplies the shared interface/memory bandwidths.
	Hardware core.Hardware
	// Profile is the offered traffic.
	Profile traffic.Profile
	// Seed drives all randomness; equal seeds give equal runs.
	Seed int64
	// Duration is the simulated time to run (seconds). Required.
	Duration float64
	// Warmup is the initial simulated time excluded from statistics
	// (default 10% of Duration).
	Warmup float64
	// DeterministicService uses the mean service time instead of an
	// exponential draw, for ablation runs.
	DeterministicService bool
	// ServiceTime overrides the service-time process of named vertices.
	ServiceTime map[string]ServiceTimer
	// PerEdgeQueues switches every IP from the model's virtual shared
	// queue to the hardware organization of Figure 2(b): one FIFO per
	// input edge (each with QueueCapacity entries) drained by a weighted
	// round-robin scheduler. Weights come from WRRWeights (default 1).
	PerEdgeQueues bool
	// WRRWeights sets per-vertex scheduler weights: vertex name → map of
	// upstream vertex name → weight. Only used with PerEdgeQueues.
	WRRWeights map[string]map[string]int
	// Trace, when set, receives every packet lifecycle event. Tracing is
	// for debugging and tests; it observes, never alters, the run.
	Trace func(TraceEvent)
	// Spans, when set, receives hierarchical packet spans (one per vertex
	// visit, with queue-wait/service/link-transfer children) into a
	// bounded ring buffer, exportable as a Chrome trace_event file. Nil
	// disables span tracing at the cost of one nil check per event.
	Spans *obs.Tracer
	// Metrics, when set, is the registry this run reports counters,
	// utilization gauges and the latency histogram into. Unlike Result's
	// measurement-window statistics, metric counters cover the whole run
	// including warmup. Concurrent runs may share one registry; series
	// aggregate.
	Metrics *obs.Registry
	// RoutePolicy overrides how named vertices pick among their outgoing
	// edges. The default (RouteDelta) draws per packet from the δ
	// fractions — the stochastic split the analytical model assumes.
	RoutePolicy map[string]RoutePolicy
	// Faults schedules timed hardware degradations (engine loss, link
	// degradation, vertex stalls) applied as first-class events during
	// the run. See FaultSchedule.
	Faults FaultSchedule
	// Retry sets per-vertex retry-on-drop policies, modelling a host
	// re-issuing rejected requests with bounded exponential backoff.
	Retry map[string]RetryPolicy
	// MaxEvents bounds the number of events the run may process; zero
	// means unbounded. Exceeding it aborts with ErrBudgetExceeded.
	MaxEvents uint64
	// CheckpointEvery, when positive, snapshots the run every that many
	// processed events and hands the snapshot to CheckpointSink. A
	// snapshot taken between events captures the complete run state —
	// event heap, in-flight packets, queue contents, RNG stream positions,
	// windowed statistics — so Resume can continue the run byte-identical
	// to one that was never interrupted (see checkpoint.go).
	CheckpointEvery uint64
	// CheckpointSink receives periodic snapshots when CheckpointEvery is
	// set. A non-nil error aborts the run with that error; sinks that
	// persist on a best-effort basis (degraded mode) should swallow their
	// own write failures and return nil.
	CheckpointSink func(*Checkpoint) error
	// Progress, when set, receives in-run progress snapshots on the
	// context-poll cadence (every ctxCheckInterval events). Like Trace and
	// Spans it observes without perturbing the run: it consumes no
	// simulator randomness, and disabled it costs one nil check per poll,
	// not per event. lognic-serve feeds these to the live job-event
	// stream.
	Progress ProgressFunc
	// TraceID and ParentSpanID, when set, stamp every span this run emits
	// with distributed-trace identity (W3C Trace Context; see
	// internal/obs/traceparent.go), parenting the simulation under the
	// serving request or job attempt that launched it.
	TraceID      string
	ParentSpanID string
	// Shards, when above 1, partitions the execution graph into vertex
	// domains and runs one event loop per domain with conservative
	// lookahead synchronization on cross-domain edges (see shard.go and
	// docs/SIM.md). 0 and 1 keep the serial engine, as does any graph
	// whose correctness constraints collapse the partition to one domain.
	// Sharded runs cannot checkpoint: combining Shards > 1 with
	// CheckpointEvery fails with ErrShardedCheckpoint.
	Shards int
}

// ProgressFunc observes in-run progress.
type ProgressFunc func(Progress)

// Progress is one in-run snapshot handed to Config.Progress.
type Progress struct {
	// Events is the number of discrete events processed so far.
	Events uint64
	// SimTime is the current simulation clock (seconds).
	SimTime float64
	// Checkpoints counts snapshots taken by this run (resumed runs
	// restart the count at zero for their own attempt).
	Checkpoints uint64
}

// RoutePolicy selects a vertex's fan-out discipline.
type RoutePolicy int

// Routing policies.
const (
	// RouteDelta draws the next edge per packet with probability δ/Σδ —
	// the model's assumption.
	RouteDelta RoutePolicy = iota
	// RouteJSQ joins the shortest downstream queue (waiting + in
	// service), breaking ties by δ order — PANIC's load-aware central
	// scheduler.
	RouteJSQ
	// RouteFlowHash hashes the packet's flow id over the δ fractions so
	// all packets of a flow take the same path — the flow-granularity
	// steering a stateful offload requires.
	RouteFlowHash

	// numRoutePolicies counts the declared policies. Keep it last: the
	// String exhaustiveness test iterates up to it, so an unlabeled new
	// policy fails tests instead of printing the fallback.
	numRoutePolicies
)

// String names the policy.
func (r RoutePolicy) String() string {
	switch r {
	case RouteDelta:
		return "delta"
	case RouteJSQ:
		return "jsq"
	case RouteFlowHash:
		return "flowhash"
	default:
		return fmt.Sprintf("route(%d)", int(r))
	}
}

// TraceKind classifies trace events.
type TraceKind int

// Trace event kinds.
const (
	// TraceArrive fires when a packet reaches a vertex.
	TraceArrive TraceKind = iota
	// TraceServiceStart fires when an engine begins serving a packet.
	TraceServiceStart
	// TraceDepart fires when a packet leaves a vertex toward the next.
	TraceDepart
	// TraceDrop fires when a full queue rejects a packet.
	TraceDrop
	// TraceDeliver fires when a packet completes at an egress engine.
	TraceDeliver
	// TraceFaultInject fires when a scheduled fault takes effect; Vertex
	// carries the vertex or link name and the packet fields are zero.
	TraceFaultInject
	// TraceFaultRecover fires when a fault's recovery takes effect.
	TraceFaultRecover
	// TraceRetry fires when a rejected packet is re-issued under a
	// RetryPolicy instead of being dropped.
	TraceRetry

	// numTraceKinds counts the declared kinds. Keep it last: the String
	// exhaustiveness test iterates up to it, so an unlabeled new kind
	// fails tests instead of printing the fallback.
	numTraceKinds
)

// String names the kind.
func (k TraceKind) String() string {
	switch k {
	case TraceArrive:
		return "arrive"
	case TraceServiceStart:
		return "service-start"
	case TraceDepart:
		return "depart"
	case TraceDrop:
		return "drop"
	case TraceDeliver:
		return "deliver"
	case TraceFaultInject:
		return "fault-inject"
	case TraceFaultRecover:
		return "fault-recover"
	case TraceRetry:
		return "retry"
	default:
		return fmt.Sprintf("trace(%d)", int(k))
	}
}

// TraceEvent is one packet lifecycle observation.
type TraceEvent struct {
	// Kind classifies the event.
	Kind TraceKind
	// Time is the simulation timestamp (seconds).
	Time float64
	// Vertex is where the event happened.
	Vertex string
	// Size is the packet size in bytes.
	Size float64
	// Born is the packet's arrival timestamp.
	Born float64
}

// VertexStats reports one vertex's behavior over the measurement window.
type VertexStats struct {
	// Arrivals counts requests reaching the vertex.
	Arrivals int
	// Served counts completed services.
	Served int
	// Dropped counts arrivals rejected by a full queue.
	Dropped int
	// Utilization is the time-average fraction of busy engines.
	Utilization float64
	// MeanQueueLen is the time-average number of waiting requests.
	MeanQueueLen float64
	// MeanWait is the mean time a served request spent waiting before
	// service (seconds).
	MeanWait float64
}

// Result is the outcome of a run.
type Result struct {
	// SimTime is the simulated duration (seconds).
	SimTime float64
	// OfferedPackets/OfferedBytes count generated arrivals in the
	// measurement window.
	OfferedPackets int
	OfferedBytes   float64
	// DeliveredPackets/DeliveredBytes count packets that reached an
	// egress engine in the measurement window.
	DeliveredPackets int
	DeliveredBytes   float64
	// Throughput is delivered bytes/second over the measurement window.
	Throughput float64
	// MeanLatency, P50, P95 and P99 are end-to-end latencies (seconds) of
	// delivered packets.
	MeanLatency float64
	P50, P95    float64
	P99         float64
	// DropRate is dropped/(dropped+delivered) over the window.
	DropRate float64
	// InterfaceUtil and MemoryUtil are the shared links' busy fractions
	// over the measurement window (Equation 4's BW_INTF/BW_MEM
	// resources). Like every windowed statistic they exclude warmup, so
	// utilization composes consistently with Throughput and VertexStats.
	InterfaceUtil, MemoryUtil float64
	// Links maps every transmission resource — "interface", "memory" and
	// dedicated "from->to" links — to its busy fraction over the
	// measurement window.
	Links map[string]float64
	// Window is the measurement window length (seconds): Duration minus
	// warmup. Rates in this Result are per-Window-second.
	Window float64
	// Vertices maps vertex name to its stats.
	Vertices map[string]VertexStats
	// Faults counts fault-injection activity over the whole run.
	Faults FaultStats
}

// link is a shared transmission resource with FIFO busy-until semantics:
// each transfer starts when the link frees up and occupies it for
// bytes/bandwidth seconds.
type link struct {
	bandwidth float64
	healthy   float64 // nominal bandwidth, restored after a LinkDegrade
	busyUntil float64
	busySum   float64 // accumulated transmission time
	bytesSum  float64 // accumulated bytes carried
	// Observation window: utilization is reported over [winStart, now]
	// with the busy time accumulated before winStart subtracted out, so
	// an observer that attaches mid-run (the warmup cutoff, or a fault
	// injected at t>0) is not biased by the unobserved prefix — the same
	// windowing timeWeighted.average applies to vertex statistics.
	winStart  float64
	busyAtWin float64
}

func newLink(bandwidth float64) *link {
	return &link{bandwidth: bandwidth, healthy: bandwidth}
}

// transfer returns the completion time of moving the given bytes starting
// no earlier than now.
func (l *link) transfer(now, bytes float64) float64 {
	if l == nil || l.bandwidth <= 0 || bytes <= 0 {
		return now
	}
	start := math.Max(now, l.busyUntil)
	hold := bytes / l.bandwidth
	done := start + hold
	l.busyUntil = done
	l.busySum += hold
	l.bytesSum += bytes
	return done
}

// window restarts the link's observation window at t: utilization
// reported afterwards covers [t, now] only. Transfers scheduled before t
// whose occupancy extends past it stay attributed to the old window (the
// hold time is booked when the transfer is scheduled).
func (l *link) window(t float64) {
	if l == nil {
		return
	}
	l.winStart = t
	l.busyAtWin = l.busySum
}

// utilization is the fraction of the observation window [winStart, now]
// the link spent transmitting.
func (l *link) utilization(now float64) float64 {
	if l == nil || now <= l.winStart {
		return 0
	}
	u := (l.busySum - l.busyAtWin) / (now - l.winStart)
	if u > 1 {
		u = 1
	}
	return u
}

// packet is an in-flight request.
type packet struct {
	id      uint64 // span track id, assigned at injection
	size    float64
	born    float64
	arrived float64 // arrival time at the current vertex (span parent start)
	flow    uint64
	measure bool // arrived after warmup
	retries int  // re-issues consumed under a RetryPolicy
}

// node is the runtime state of one vertex.
type node struct {
	v        core.Vertex
	kind     core.VertexKind
	engines  int
	busy     int
	queueCap int // 0 = unbounded
	queue    queueOrg
	meanWork float64 // mean service seconds per byte (× size = mean svc)
	timer    ServiceTimer
	outEdges []routeChoice
	policy   RoutePolicy
	// fault state
	down         int     // engines currently removed by EngineDown
	stalledUntil float64 // VertexStall freeze horizon
	// stats
	arrivals, served, dropped int
	waitSum                   float64
	busyTW, queueTW, downTW   timeWeighted
	// droppedC is the per-vertex drop counter, resolved when Config.Metrics
	// is set (nil otherwise).
	droppedC *obs.Counter
}

// queued is one waiting request, stored by value in the preallocated ring
// buffers of queues.go.
type queued struct {
	p        *packet
	enqueued float64
}

// routeChoice is one outgoing edge with its cumulative routing probability
// and precomputed transfer byte counts per packet byte. toNode is resolved
// once in New so the hot path never touches the name→node map, and span
// is the edge's transfer-span name, built once so depart never allocates.
type routeChoice struct {
	to          string
	span        string
	toNode      *node
	cum         float64
	intfPerByte float64 // bytes over interface per packet byte
	memPerByte  float64 // bytes over memory per packet byte
	dedPerByte  float64 // bytes over the dedicated link per packet byte
	dedicated   *link
	overhead    float64 // O of the source vertex
	// remote marks a cross-domain edge on a sharded run: depart hands the
	// packet to the domain remoteDom instead of scheduling locally.
	remote    bool
	remoteDom int32
}

// Simulator executes a Config.
type Simulator struct {
	cfg    Config
	rng    *rand.Rand
	rngSrc *countingSource // s.rng's source, counted for checkpointing
	events eventQueue
	seq    uint64
	now    float64
	gen    *traffic.Generator // arrival stream, set by RunContext
	// resumed marks a simulator rebuilt by Resume: its heap, statistics
	// and RNG positions were restored from a Checkpoint, so RunContext
	// must not re-seed the arrival pump or the fault schedule.
	resumed  bool
	lastCkpt uint64 // processed count at the last snapshot
	ckpts    uint64 // snapshots taken by this run, reported via Progress

	nodes     map[string]*node
	order     []string
	intf      *link
	mem       *link
	links     map[string]*link // by name: "interface", "memory", "from->to"
	ingressPk []ingressShare
	faults    FaultStats
	metrics   *simMetrics // nil unless Config.Metrics is set
	packetSeq uint64      // span track ids
	processed uint64      // events executed, for the events counter
	free      []*packet   // packet record free list

	// plan, when non-nil, is the multi-domain partition a sharded run
	// executes (Config.Shards > 1 and the graph actually splits). sh is
	// set only on the per-domain executors a sharded run builds: its
	// presence switches schedule/depart/complete/trace onto the sharded
	// paths.
	plan *shardPlan
	sh   *shardCtx

	warmEnd float64
	// measurement accumulators
	offeredPackets   int
	offeredBytes     float64
	deliveredPackets int
	deliveredBytes   float64
	droppedMeasured  int
	latencies        sampleSet
}

type ingressShare struct {
	n   *node
	cum float64
}

// New validates the config and precomputes the runtime structure.
func New(cfg Config) (*Simulator, error) {
	if cfg.Graph == nil {
		return nil, errors.New("sim: nil graph")
	}
	if err := cfg.Profile.Validate(); err != nil {
		return nil, err
	}
	if cfg.Duration <= 0 || math.IsNaN(cfg.Duration) || math.IsInf(cfg.Duration, 0) {
		return nil, fmt.Errorf("sim: invalid duration %v", cfg.Duration)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("sim: invalid shard count %d", cfg.Shards)
	}
	switch {
	case cfg.Warmup == 0:
		cfg.Warmup = 0.1 * cfg.Duration
	case math.IsNaN(cfg.Warmup) || cfg.Warmup < 0 || cfg.Warmup >= cfg.Duration:
		return nil, fmt.Errorf("sim: warmup %v outside [0, duration %v)", cfg.Warmup, cfg.Duration)
	}
	for vertex, weights := range cfg.WRRWeights {
		for upstream, w := range weights {
			if w <= 0 {
				return nil, fmt.Errorf("sim: WRR weight %s<-%s must be positive, got %d", vertex, upstream, w)
			}
		}
	}

	g := cfg.Graph
	paths, err := g.Paths()
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, errors.New("sim: graph has no ingress→egress path")
	}
	// Visit probability per vertex and traversal probability per edge.
	visitP := map[string]float64{}
	edgeP := map[[2]string]float64{}
	for _, p := range paths {
		seen := map[string]bool{}
		for i, v := range p.Vertices {
			if !seen[v] {
				visitP[v] += p.Weight
				seen[v] = true
			}
			if i+1 < len(p.Vertices) {
				edgeP[[2]string{v, p.Vertices[i+1]}] += p.Weight
			}
		}
	}

	if cfg.CheckpointEvery > 0 && cfg.CheckpointSink == nil {
		return nil, errors.New("sim: CheckpointEvery set without a CheckpointSink")
	}
	src := newCountingSource(SeedStream(cfg.Seed, engineStreamTag))
	s := &Simulator{
		cfg:    cfg,
		rng:    rand.New(src),
		rngSrc: src,
		nodes:  map[string]*node{},
		links:  map[string]*link{},
	}
	if cfg.Hardware.InterfaceBW > 0 {
		s.intf = newLink(cfg.Hardware.InterfaceBW)
		s.links["interface"] = s.intf
	}
	if cfg.Hardware.MemoryBW > 0 {
		s.mem = newLink(cfg.Hardware.MemoryBW)
		s.links["memory"] = s.mem
	}

	for _, v := range g.Vertices() {
		n := &node{
			v:        v,
			kind:     v.Kind,
			engines:  v.Parallelism,
			queueCap: v.QueueCapacity,
		}
		if n.engines < 1 {
			n.engines = 1
		}
		// Mean service seconds per packet byte:
		// s(B) = D·B·Σδ_in/(P_eff·p_v), so per byte = D·Σδ/(P_eff·p_v).
		pEff := v.Partition * v.Acceleration * v.Throughput
		if pEff > 0 {
			deltaIn := g.DeltaIn(v.Name)
			pv := visitP[v.Name]
			if pv > 0 && deltaIn > 0 {
				n.meanWork = float64(n.engines) * deltaIn / (pEff * pv)
			}
		}
		if cfg.ServiceTime != nil {
			if t, ok := cfg.ServiceTime[v.Name]; ok {
				n.timer = t
			}
		}
		if cfg.RoutePolicy != nil {
			n.policy = cfg.RoutePolicy[v.Name]
		}
		if cfg.PerEdgeQueues {
			var weights map[string]int
			if cfg.WRRWeights != nil {
				weights = cfg.WRRWeights[v.Name]
			}
			ups := make([]string, 0, len(g.InEdges(v.Name)))
			for _, e := range g.InEdges(v.Name) {
				ups = append(ups, e.From)
			}
			if len(ups) == 0 {
				ups = []string{""}
			}
			n.queue = newWRRQueues(ups, n.queueCap, weights)
		} else {
			n.queue = newSharedQueue(n.queueCap)
		}
		// Routing table with cumulative probabilities.
		out := g.OutEdges(v.Name)
		total := 0.0
		for _, e := range out {
			total += e.Delta
		}
		cum := 0.0
		for i, e := range out {
			var p float64
			if total > 0 {
				p = e.Delta / total
			} else {
				p = 1 / float64(len(out))
			}
			cum += p
			if i == len(out)-1 {
				cum = 1 // guard drift
			}
			rc := routeChoice{to: e.To, span: "->" + e.To, cum: cum, overhead: v.Overhead}
			ep := edgeP[[2]string{e.From, e.To}]
			if ep > 0 {
				rc.intfPerByte = e.Alpha / ep
				rc.memPerByte = e.Beta / ep
				if e.Bandwidth > 0 {
					rc.dedPerByte = e.Delta / ep
					rc.dedicated = newLink(e.Bandwidth)
					s.links[e.From+"->"+e.To] = rc.dedicated
				}
			}
			n.outEdges = append(n.outEdges, rc)
		}
		s.nodes[v.Name] = n
		s.order = append(s.order, v.Name)
	}
	// Second pass: resolve edge targets to node pointers so routing and
	// JSQ probing never touch the name map on the hot path.
	for _, name := range s.order {
		n := s.nodes[name]
		for i := range n.outEdges {
			n.outEdges[i].toNode = s.nodes[n.outEdges[i].to]
		}
	}
	// Preallocate the event queue: pending events at any instant are
	// bounded by in-flight work (one per busy engine, transfer, retry and
	// scheduled fault), which starts well under this and grows amortized.
	s.events = newEventQueue(256 + len(cfg.Faults))

	// Ingress selection probabilities: share of path weight starting at
	// each ingress.
	inW := map[string]float64{}
	for _, p := range paths {
		inW[p.Vertices[0]] += p.Weight
	}
	cum := 0.0
	ings := g.Ingresses()
	for i, name := range ings {
		cum += inW[name]
		if i == len(ings)-1 {
			cum = 1
		}
		s.ingressPk = append(s.ingressPk, ingressShare{n: s.nodes[name], cum: cum})
	}
	s.warmEnd = cfg.Warmup
	if err := cfg.Faults.validate(s); err != nil {
		return nil, err
	}
	for vertex, rp := range cfg.Retry {
		if _, ok := s.nodes[vertex]; !ok {
			return nil, fmt.Errorf("sim: retry policy for unknown vertex %q", vertex)
		}
		if err := rp.validate(vertex); err != nil {
			return nil, err
		}
	}
	s.initObs()
	if cfg.Shards > 1 {
		pl, err := buildPlan(s, cfg.Shards)
		if err != nil {
			return nil, err
		}
		// A one-domain partition (the constraint closure swallowed the
		// graph) stays on the serial engine — trivially byte-identical.
		if len(pl.domains) > 1 {
			if cfg.CheckpointEvery > 0 {
				return nil, fmt.Errorf("sim: CheckpointEvery with %d domains: %w", len(pl.domains), ErrShardedCheckpoint)
			}
			s.plan = pl
		}
	}
	return s, nil
}

// ctxCheckInterval is how many events pass between context polls: cheap
// enough to be invisible, frequent enough that cancellation lands fast.
const ctxCheckInterval = 1024

// stallWindow is the progress watchdog's patience: this many consecutive
// events without the simulation clock advancing aborts the run. Legitimate
// same-timestamp bursts (back-to-back burst arrivals, zero-overhead
// forwarding chains) sit orders of magnitude below it.
const stallWindow = 1 << 17

// Run executes the simulation and returns its Result. It delegates to
// RunContext with a background context.
func (s *Simulator) Run() (Result, error) {
	return s.RunContext(context.Background())
}

// Domains reports how many event-loop domains this simulator will run: 1
// for the serial engine (including sharded configs whose correctness
// constraints collapsed the partition), or the domain count of the sharded
// plan. Callers use it to tell whether Config.Shards actually took effect.
func (s *Simulator) Domains() int {
	if s.plan == nil {
		return 1
	}
	return len(s.plan.domains)
}

// RunContext executes the simulation under a context: cancellation or
// deadline expiry aborts the run with the context's error. The run also
// aborts with ErrBudgetExceeded once it processes more than
// Config.MaxEvents events (when set), and with ErrStalled when the
// progress watchdog sees the simulated clock pinned at one timestamp —
// both turn a pathological config into a typed error instead of a hang.
func (s *Simulator) RunContext(ctx context.Context) (Result, error) {
	if s.plan != nil {
		return s.runSharded(ctx)
	}
	if !s.resumed {
		// The traffic stream is a hashed derivation of the base seed, not
		// seed arithmetic: with the old cfg.Seed+1 scheme, run N's traffic
		// stream was identical to run N+1's engine stream, correlating
		// replications that sweeps treat as independent.
		gen, err := traffic.NewGenerator(s.cfg.Profile, SeedStream(s.cfg.Seed, trafficStreamTag))
		if err != nil {
			return Result{}, err
		}
		s.gen = gen
		// Seed the arrival pump, then the fault schedule.
		first := gen.Next()
		s.schedule(first.Time, event{kind: evArrival, a: first.Size, flow: first.Flow})
		s.scheduleFaults()
		// Restart every utilization window at the warmup cutoff, so link and
		// vertex statistics cover the same measurement window as throughput
		// and latency instead of averaging over the absolute elapsed time.
		s.schedule(s.warmEnd, event{kind: evWarmup})
	}
	// A resumed simulator skips the seeding above: its heap (pending
	// arrival pump, fault schedule, warmup rebase included), generator
	// position and statistics were all restored from the snapshot, and
	// s.processed continues the interrupted run's event count so the
	// MaxEvents budget spans the whole logical run.

	var stalled int
	var e event
	for s.events.len() > 0 {
		if s.processed%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("sim: run aborted at t=%v after %d events: %w", s.now, s.processed, err)
			}
			if s.cfg.Progress != nil {
				s.cfg.Progress(Progress{Events: s.processed, SimTime: s.now, Checkpoints: s.ckpts})
			}
		}
		if s.cfg.MaxEvents > 0 && s.processed >= s.cfg.MaxEvents {
			return Result{}, fmt.Errorf("%w: budget %d at t=%v", ErrBudgetExceeded, s.cfg.MaxEvents, s.now)
		}
		if s.cfg.CheckpointEvery > 0 && s.processed > s.lastCkpt &&
			s.processed%s.cfg.CheckpointEvery == 0 {
			// Snapshot between events: the heap holds every future event,
			// so the captured state is exactly the state an uninterrupted
			// run passes through here.
			s.lastCkpt = s.processed
			s.ckpts++
			if err := s.cfg.CheckpointSink(s.snapshot()); err != nil {
				return Result{}, fmt.Errorf("sim: checkpoint sink at t=%v: %w", s.now, err)
			}
		}
		s.events.pop(&e)
		if e.time > s.cfg.Duration {
			break
		}
		if e.time > s.now {
			stalled = 0
		} else if stalled++; stalled > stallWindow {
			return Result{}, fmt.Errorf("%w: %d events at t=%v", ErrStalled, stalled, s.now)
		}
		s.now = e.time
		s.dispatch(&e)
		s.processed++
	}
	s.now = s.cfg.Duration
	return s.collect(), nil
}

// rebaseWindows restarts every utilization window at the current time —
// the warmup-cutoff event's action.
func (s *Simulator) rebaseWindows() {
	for _, l := range s.links {
		l.window(s.now)
	}
	for _, n := range s.nodes {
		n.busyTW.rebase(s.now)
		n.queueTW.rebase(s.now)
	}
}

// newPacket takes a record off the free list (or allocates one) and
// initializes it as a fresh arrival. Records recycle only after their
// terminal event (delivery or final drop), so a packet pointer is unique
// among all in-flight packets.
func (s *Simulator) newPacket(size float64, flow uint64) *packet {
	s.packetSeq++
	var p *packet
	if n := len(s.free); n > 0 {
		p = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		p = new(packet)
	}
	*p = packet{id: s.packetSeq, size: size, born: s.now, flow: flow, measure: s.now >= s.warmEnd}
	return p
}

// freePacket returns a terminal packet's record to the free list.
func (s *Simulator) freePacket(p *packet) {
	s.free = append(s.free, p)
}

// arrivalPump injects the pending packet and schedules the next arrival.
func (s *Simulator) arrivalPump(size float64, flow uint64) {
	p := s.newPacket(size, flow)
	if p.measure {
		s.offeredPackets++
		s.offeredBytes += p.size
	}
	if s.metrics != nil {
		s.metrics.offered.Inc()
	}
	ing := s.pickIngress()
	s.arriveAt(ing, nil, p)

	next := s.gen.Next()
	if next.Time <= s.cfg.Duration {
		s.schedule(next.Time, event{kind: evArrival, a: next.Size, flow: next.Flow})
	}
}

func (s *Simulator) pickIngress() *node {
	if len(s.ingressPk) == 1 {
		return s.ingressPk[0].n
	}
	u := s.rng.Float64()
	for _, is := range s.ingressPk {
		if u <= is.cum {
			return is.n
		}
	}
	return s.ingressPk[len(s.ingressPk)-1].n
}

// arriveAt delivers a packet to a vertex; from is the upstream vertex (nil
// for fresh ingress arrivals).
func (s *Simulator) arriveAt(n *node, from *node, p *packet) {
	name := n.v.Name
	p.arrived = s.now
	if p.measure {
		n.arrivals++
	}
	s.trace(TraceArrive, name, p)
	if n.kind == core.KindEgress {
		s.complete(n, p)
		return
	}
	if n.meanWork <= 0 && n.timer == nil {
		// Pure forwarding vertex (ingress or zero-cost IP).
		s.depart(n, p)
		return
	}
	if s.canStart(n) {
		s.startService(n, p, 0)
		return
	}
	if !n.queue.push(from.name(), queued{p: p, enqueued: s.now}) {
		// Full queue: re-issue under the vertex's retry policy, if any
		// budget remains — modelling a host retrying a rejected DMA or
		// doorbell — otherwise drop.
		if rp, ok := s.cfg.Retry[name]; ok && rp.MaxRetries > 0 {
			if p.retries < rp.MaxRetries {
				p.retries++
				s.faults.Retries++
				if s.metrics != nil {
					s.metrics.retries.Inc()
				}
				s.trace(TraceRetry, name, p)
				// Cap the exponent: beyond 2^30 the doubling only
				// overflows (0·Inf would poison the clock with NaN).
				exp := p.retries - 1
				if exp > 30 {
					exp = 30
				}
				backoff := rp.Backoff * math.Pow(2, float64(exp))
				s.schedule(s.now+backoff, event{kind: evArriveAt, node: n, from: from, pkt: p})
				return
			}
			s.faults.RetryDrops++
		}
		if p.measure {
			n.dropped++
			s.droppedMeasured++
		}
		if n.droppedC != nil {
			n.droppedC.Inc()
		}
		s.spanVertex(n, p, visitDrop)
		s.trace(TraceDrop, name, p)
		s.freePacket(p)
		return
	}
	n.queueTW.set(s.now, float64(n.queue.length()))
}

// trace emits an event to the configured hook, if any. Sharded domains
// buffer instead: the hook replays the merged stream in deterministic
// order after the run.
func (s *Simulator) trace(kind TraceKind, vertex string, p *packet) {
	if s.sh != nil {
		if s.sh.traceOn {
			s.sh.addTrace(kind, s.now, vertex, p.size, p.born)
		}
		return
	}
	if s.cfg.Trace == nil {
		return
	}
	s.cfg.Trace(TraceEvent{
		Kind: kind, Time: s.now, Vertex: vertex, Size: p.size, Born: p.born,
	})
}

// startService begins serving a packet at a node; wait is its queueing
// delay so far.
func (s *Simulator) startService(n *node, p *packet, wait float64) {
	n.busy++
	n.busyTW.set(s.now, float64(n.busy)/float64(n.engines))
	s.trace(TraceServiceStart, n.v.Name, p)
	if wait > 0 {
		s.span("queue-wait", obs.CatQueue, p, s.now-wait, wait, nil)
	}
	svcStart := s.now
	outstanding := n.busy - 1 + n.queue.length()
	var svc float64
	switch {
	case n.timer != nil:
		svc = n.timer(p.size, outstanding, s.rng)
	case s.cfg.DeterministicService:
		svc = n.meanWork * p.size
	default:
		svc = s.rng.ExpFloat64() * n.meanWork * p.size
	}
	if svc < 0 {
		svc = 0
	}
	s.schedule(s.now+svc, event{kind: evServiceDone, node: n, pkt: p, a: wait, b: svcStart})
}

// serviceDone completes one engine's service: book the stats, route the
// packet onward, and pull the next request per the queue discipline —
// unless the engine was lost or the vertex stalled while this service ran.
func (s *Simulator) serviceDone(n *node, p *packet, wait, svcStart float64) {
	if p.measure {
		n.served++
		n.waitSum += wait
	}
	n.busy--
	n.busyTW.set(s.now, float64(n.busy)/float64(n.engines))
	s.span("service", obs.CatService, p, svcStart, s.now-svcStart, nil)
	s.depart(n, p)
	if s.canStart(n) {
		if q, ok := n.queue.pop(); ok {
			n.queueTW.set(s.now, float64(n.queue.length()))
			s.startService(n, q.p, s.now-q.enqueued)
		}
	}
}

// depart routes a packet out of a node and schedules its arrival at the
// next vertex after overhead and data movement.
func (s *Simulator) depart(n *node, p *packet) {
	if len(n.outEdges) == 0 {
		// Validated graphs only hit this at egress, handled in arriveAt.
		s.complete(n, p)
		return
	}
	s.trace(TraceDepart, n.v.Name, p)
	s.spanVertex(n, p, visitDepart)
	rc := s.pickRoute(n, p)
	t := s.now + rc.overhead
	if s.intf != nil && rc.intfPerByte > 0 {
		t = s.intf.transfer(t, p.size*rc.intfPerByte)
	}
	if s.mem != nil && rc.memPerByte > 0 {
		t = s.mem.transfer(t, p.size*rc.memPerByte)
	}
	if rc.dedicated != nil && rc.dedPerByte > 0 {
		t = rc.dedicated.transfer(t, p.size*rc.dedPerByte)
	}
	if t > s.now {
		s.span(rc.span, obs.CatTransfer, p, s.now, t-s.now, nil)
	}
	if rc.remote {
		// Cross-domain edge on a sharded run: hand the packet to the
		// owning domain. t ≥ now + overhead ≥ the window horizon, so the
		// receiver can never see a straggler.
		s.sendRemote(rc, n.v.Name, t, p)
		return
	}
	s.schedule(t, event{kind: evArriveAt, node: rc.toNode, from: n, pkt: p})
}

// pickRoute chooses the outgoing edge per the vertex's routing policy.
func (s *Simulator) pickRoute(n *node, p *packet) *routeChoice {
	out := n.outEdges
	if len(out) == 1 {
		return &out[0]
	}
	var u float64
	switch n.policy {
	case RouteJSQ:
		best := 0
		bestLoad := out[0].toNode.load()
		for i := 1; i < len(out); i++ {
			if l := out[i].toNode.load(); l < bestLoad {
				best, bestLoad = i, l
			}
		}
		return &out[best]
	case RouteFlowHash:
		u = splitmix(p.flow)
	default:
		u = s.rng.Float64()
	}
	for i := range out {
		if u <= out[i].cum {
			return &out[i]
		}
	}
	return &out[len(out)-1]
}

// name is the vertex name, "" for a nil node (no upstream vertex).
func (n *node) name() string {
	if n == nil {
		return ""
	}
	return n.v.Name
}

// load is the JSQ metric: requests queued or in service at the vertex.
func (n *node) load() int {
	return n.busy + n.queue.length()
}

// splitmix hashes a flow id into [0, 1) (SplitMix64 finalizer).
func splitmix(x uint64) float64 {
	return float64(mix64(x)>>11) / float64(1<<53)
}

func (s *Simulator) complete(n *node, p *packet) {
	s.trace(TraceDeliver, n.v.Name, p)
	s.spanVertex(n, p, visitDeliver)
	if s.metrics != nil {
		s.metrics.delivered.Inc()
		s.metrics.latency.Observe(s.now - p.born)
	}
	if s.sh != nil {
		// Sharded domain: buffer the completion; the merge replays all
		// domains' deliveries in global (time, id) order so the latency
		// accumulators sum in the serial order.
		if p.measure {
			s.sh.deliveries = append(s.sh.deliveries, delivery{t: s.now, id: p.id, born: p.born, size: p.size})
		}
		s.freePacket(p)
		return
	}
	if p.measure {
		s.deliveredPackets++
		s.deliveredBytes += p.size
		s.latencies.add(s.now - p.born)
	}
	s.freePacket(p)
}

func (s *Simulator) collect() Result {
	window := s.cfg.Duration - s.warmEnd
	res := Result{
		SimTime:          s.cfg.Duration,
		OfferedPackets:   s.offeredPackets,
		OfferedBytes:     s.offeredBytes,
		DeliveredPackets: s.deliveredPackets,
		DeliveredBytes:   s.deliveredBytes,
		MeanLatency:      s.latencies.mean(),
		P50:              s.latencies.quantile(0.50),
		P95:              s.latencies.quantile(0.95),
		P99:              s.latencies.quantile(0.99),
		Window:           window,
		Vertices:         map[string]VertexStats{},
		Links:            map[string]float64{},
	}
	if window > 0 {
		res.Throughput = s.deliveredBytes / window
	}
	if s.deliveredPackets+s.droppedMeasured > 0 {
		res.DropRate = float64(s.droppedMeasured) / float64(s.deliveredPackets+s.droppedMeasured)
	}
	res.InterfaceUtil = s.intf.utilization(s.now)
	res.MemoryUtil = s.mem.utilization(s.now)
	for name, l := range s.links {
		res.Links[name] = l.utilization(s.now)
	}
	res.Faults = s.FaultStats()
	for _, name := range s.order {
		n := s.nodes[name]
		vs := VertexStats{
			Arrivals:     n.arrivals,
			Served:       n.served,
			Dropped:      n.dropped,
			Utilization:  n.busyTW.average(s.now),
			MeanQueueLen: n.queueTW.average(s.now),
		}
		if n.served > 0 {
			vs.MeanWait = n.waitSum / float64(n.served)
		}
		res.Vertices[name] = vs
	}
	s.finishObs(res)
	return res
}

// Run is a convenience wrapper: build and execute in one call.
func Run(cfg Config) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run()
}
