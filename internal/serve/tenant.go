package serve

// Multi-tenant fairness. A request carries a tenant identity in the
// X-Lognic-Tenant header (the legacy X-Tenant spelling is accepted;
// absent or unrecognized names fold into the "default" tenant), and a
// server configured with TenantWeights holds every tenant to a weighted
// share of three contended resources:
//
//   - Workers: each tenant owns a reserved slice of the worker pool (its
//     own semaphore), so a saturating tenant can occupy at most its share
//     of evaluation slots and never makes a light tenant wait behind it.
//   - QueueDepth: each tenant queues against its own share; beyond it the
//     tenant is shed with 429 + Retry-After scaled to its own backlog and
//     worker slice, while other tenants keep admitting.
//   - CacheBytes: the canonical result cache splits into per-tenant LRU
//     partitions (byte sub-budgets), optionally with a shared spillover
//     pool for entries larger than their partition, so one tenant's giant
//     simulate bodies cannot evict everyone's warm entries. The L1
//     exact-body index partitions the same way.
//
// Shares are apportioned by the largest-remainder (greatest-deficit)
// method: floor of the exact weighted share, minimum one slot, remaining
// slots to the tenants furthest below their exact share. The minimum-one
// guarantee means the effective worker cap can exceed Workers by at most
// the number of tenants whose exact share rounded below one;
// withDefaults raises Workers/QueueDepth to at least the tenant count so
// tiny pools still give everyone a slot.
//
// There is one request path. With TenantWeights unset the table holds a
// single default tenant that owns all of Workers, QueueDepth and the
// cache, and the only difference is what tenanted() decides: no tenant
// labels, span args or log attributes, and no /v1/slo rows.

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lognic/internal/obs"
	"lognic/internal/obs/slo"
)

// defaultTenant absorbs requests with no (or an unconfigured) tenant
// header. It always exists — on an untenanted server it is the only
// tenant — with weight 1 unless configured explicitly.
const defaultTenant = "default"

// spillTenant labels the shared spillover pool in metrics and snapshot
// sections; it is reserved and never a valid tenant name.
const spillTenant = "*"

// tenantHeader carries the client's tenant identity.
const tenantHeader = "X-Lognic-Tenant"

// tenant is one tenant's runtime state.
type tenant struct {
	// partition is the tenant's slice of the canonical cache (a nil cache
	// when caching is disabled); its name is the tenant's name.
	partition
	weight float64
	// label is the tenant's metric label, span arg and log attribute
	// value: its name on a tenanted server, "" on an untenanted one.
	label string

	// Admission: a reserved slice of the worker pool and the wait queue.
	workerShare int
	queueShare  int
	sem         chan struct{}
	queued      atomic.Int64

	// l1 is the tenant's slice of the L1 index: exact request bytes
	// (endpoint NUL body) to canonical key, nil when caching is disabled.
	l1 *lruCache

	// SLO accounting: the tenant's own burn-rate monitor (the per-tenant
	// rows under /v1/slo) reads these, and the server-wide monitor sums
	// them over the table.
	sloTotal, sloErrors, sloSlow atomic.Uint64
	slo                          *slo.Monitor

	// Cache and admission tallies, read when /metrics is scraped
	// (registerMetrics).
	hits, l1Hits, misses, rejected atomic.Uint64

	// requests holds the tenant's lognic_serve_requests_total series by
	// endpoint and status code, each resolved on its first request.
	requestsMu sync.Mutex
	requests   map[requestSeries]*obs.Counter
}

// requestSeries names one lognic_serve_requests_total series of a tenant.
type requestSeries struct {
	endpoint string
	code     int
}

// partition is one slice of the canonical cache — a tenant's, or the
// shared spillover pool under spillTenant.
type partition struct {
	name   string
	cache  *lruCache
	budget int64
}

// newPartition builds a cache partition.
func newPartition(name string, entries int, budget int64) partition {
	return partition{name: name, cache: newLRU(entries, budget), budget: budget}
}

// validTenantName restricts tenant names to a bounded, header- and
// metric-safe charset. The spill label "*" is reserved.
func validTenantName(name string) error {
	if name == "" {
		return fmt.Errorf("serve: empty tenant name")
	}
	if name == spillTenant {
		return fmt.Errorf("serve: tenant name %q is reserved for the spillover pool", spillTenant)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("serve: bad tenant name %q (want [A-Za-z0-9._-])", name)
		}
	}
	return nil
}

// parseTenantWeights parses the -tenant-weights flag: comma-separated
// name:weight pairs, weights positive.
func parseTenantWeights(s string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, ws, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("serve: bad tenant weight %q (want name:weight)", part)
		}
		w, err := strconv.ParseFloat(ws, 64)
		if err != nil || w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
			return nil, fmt.Errorf("serve: bad tenant weight %q (weight must be a positive number)", part)
		}
		if err := validTenantName(name); err != nil {
			return nil, err
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("serve: duplicate tenant %q in -tenant-weights", name)
		}
		out[name] = w
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("serve: -tenant-weights names no tenants")
	}
	return out, nil
}

// apportion splits total indivisible units across names in proportion
// to weight by the largest-remainder method: every name gets the floor of
// its exact share but at least one unit; remaining units go one each to
// the names furthest below their exact share. Deterministic — ties break
// by weight, then name. The minimum-one guarantee can push the sum past
// total when total is small; callers that need a hard sum must size
// total to at least len(names).
func apportion[T int | int64](total T, names []string, weights map[string]float64) map[string]T {
	out := make(map[string]T, len(names))
	if len(names) == 0 {
		return out
	}
	var sum float64
	for _, n := range names {
		sum += weights[n]
	}
	type deficit struct {
		name string
		gap  float64
	}
	deficits := make([]deficit, 0, len(names))
	var used T
	for _, n := range names {
		exact := float64(total) * weights[n] / sum
		share := T(exact)
		if share < 1 {
			share = 1
		}
		out[n] = share
		used += share
		deficits = append(deficits, deficit{name: n, gap: exact - float64(share)})
	}
	sort.Slice(deficits, func(i, j int) bool {
		if deficits[i].gap != deficits[j].gap {
			return deficits[i].gap > deficits[j].gap
		}
		if weights[deficits[i].name] != weights[deficits[j].name] {
			return weights[deficits[i].name] > weights[deficits[j].name]
		}
		return deficits[i].name < deficits[j].name
	})
	for i := 0; used < total; i++ {
		out[deficits[i%len(deficits)].name]++
		used++
	}
	return out
}

// apportionBytes is apportion for byte budgets. total <= 0 (byte bound
// disabled) gives every partition 0, which newLRU reads as unbounded;
// otherwise apportion's minimum of one byte keeps a tiny budget from
// degrading to unbounded.
func apportionBytes(total int64, names []string, weights map[string]float64) map[string]int64 {
	out := apportion(total, names, weights)
	if total <= 0 {
		for n := range out {
			out[n] = 0
		}
	}
	return out
}

// initTenants builds the tenant table. Called once from NewServer.
func (s *Server) initTenants() {
	weights := s.cfg.TenantWeights
	if !s.tenanted() {
		// Untenanted is one default tenant owning every worker, queue slot
		// and cache byte.
		weights = map[string]float64{defaultTenant: 1}
	}
	names := make([]string, 0, len(weights))
	for name := range weights {
		names = append(names, name)
	}
	sort.Strings(names)
	workerShares := apportion(s.cfg.Workers, names, weights)
	queueShares := apportion(s.cfg.QueueDepth, names, weights)

	// Cache arithmetic: the spillover fraction comes off the top of the
	// byte budget, the rest splits into weighted partitions. Entry counts
	// split the same way (byte budgets are the operative bound; the entry
	// split just keeps per-partition maps proportionate).
	cacheOn := s.cfg.CacheEntries > 0
	var spillBytes int64
	cacheBudget := s.cfg.CacheBytes
	if cacheBudget < 0 {
		cacheBudget = 0 // byte bound disabled
	}
	if cacheOn && cacheBudget > 0 && s.cfg.TenantCacheSpill > 0 {
		spillBytes = int64(float64(cacheBudget) * s.cfg.TenantCacheSpill)
	}
	byteShares := apportionBytes(cacheBudget-spillBytes, names, weights)
	entryShares := apportion(s.cfg.CacheEntries, names, weights)

	s.tenants = make(map[string]*tenant, len(names))
	for _, name := range names {
		t := &tenant{
			partition:   partition{name: name},
			weight:      weights[name],
			workerShare: workerShares[name],
			queueShare:  queueShares[name],
			sem:         make(chan struct{}, workerShares[name]),
		}
		if s.tenanted() {
			t.label = name
		}
		if cacheOn {
			t.partition = newPartition(name, entryShares[name], byteShares[name])
			// The L1 keys on whole request bodies, so it gets a quarter of
			// the partition's byte budget — enough to index every hot entry
			// without competing with the responses themselves for memory.
			t.l1 = newLRU(entryShares[name], t.budget/4)
			s.partitions = append(s.partitions, &t.partition)
		}
		// The tenant's own burn-rate monitor. No Registry: the lognic_slo_*
		// series belong to the server-wide monitor; tenant judgements are
		// served as /v1/slo rows instead.
		t.slo = slo.NewMonitor(slo.Config{
			AvailabilityTarget: s.cfg.SLOAvailability,
			LatencyTarget:      s.cfg.SLOLatency,
			LatencyThreshold:   s.cfg.SLOLatencyThreshold,
			Source:             t.sloSample,
		})
		t.slo.Start()
		s.tenants[name] = t
	}
	if spillBytes > 0 {
		spill := newPartition(spillTenant, s.cfg.CacheEntries, spillBytes)
		s.spill = spill.cache
		s.partitions = append(s.partitions, &spill)
	}
}

// tenanted reports whether TenantWeights configured tenancy. It is the
// only difference between a tenanted server and an untenanted one, whose
// table holds just the default tenant: it decides whether tenant names
// appear as metric labels, span args and log attributes (tenant.label)
// and as /v1/slo rows, and whether a warm-start keeps snapshot sections
// apart or flattens them into the one partition.
func (s *Server) tenanted() bool { return s.cfg.TenantWeights != nil }

// claimedTenant is the tenant name the client asserted ("" when absent).
// Used verbatim in logs; metrics use the resolved bucket so cardinality
// stays bounded by configuration, not by client behavior.
func claimedTenant(r *http.Request) string {
	if t := r.Header.Get(tenantHeader); t != "" {
		return t
	}
	return r.Header.Get("X-Tenant")
}

// tenantFor resolves a claimed tenant name to its bucket — the default
// tenant for unknown or absent names, and for every name on an
// untenanted server.
func (s *Server) tenantFor(claimed string) *tenant {
	if t := s.tenants[claimed]; t != nil {
		return t
	}
	return s.tenants[defaultTenant]
}

// labels adds the tenant label to a metric label set, leaving the lone
// default tenant of an untenanted server unlabeled.
func (t *tenant) labels(l obs.Labels) obs.Labels {
	if t.label != "" {
		l["tenant"] = t.label
	}
	return l
}

// requestsTotal returns the tenant's lognic_serve_requests_total series
// for one endpoint and status code. It registers the series on first use,
// so a series appears only after its first request, and later requests
// skip the registry's label map, key and lock.
func (t *tenant) requestsTotal(reg *obs.Registry, endpoint string, code int) *obs.Counter {
	k := requestSeries{endpoint, code}
	t.requestsMu.Lock()
	defer t.requestsMu.Unlock()
	c, ok := t.requests[k]
	if !ok {
		c = reg.Counter("lognic_serve_requests_total", "requests by endpoint and status",
			t.labels(obs.Labels{"endpoint": endpoint, "code": strconv.Itoa(code)}))
		if t.requests == nil {
			t.requests = map[requestSeries]*obs.Counter{}
		}
		t.requests[k] = c
	}
	return c
}

// cacheGet probes the canonical tier for one request: the tenant's
// partition first, then the shared spillover pool.
func (s *Server) cacheGet(t *tenant, key string) ([]byte, bool) {
	body, ok := t.cache.Get(key)
	if !ok {
		body, ok = s.spill.Get(key)
	}
	return body, ok
}

// cachePut stores one response. An entry too large for the tenant's
// partition goes to the spillover pool (when configured), where it
// competes with every tenant's oversized entries instead of evicting
// this tenant's warm set.
func (s *Server) cachePut(t *tenant, key string, body []byte) {
	if !t.cache.Put(key, body) {
		s.spill.Put(key, body)
	}
}

// countSLO tallies one finished request against the tenant's SLO
// counters: 429s are load shedding, not budget burn; 5xx burns
// availability; slow successes burn latency.
func (t *tenant) countSLO(code int, slow bool) {
	if code == http.StatusTooManyRequests {
		return
	}
	t.sloTotal.Add(1)
	switch {
	case code >= 500:
		t.sloErrors.Add(1)
	case code < 400 && slow:
		t.sloSlow.Add(1)
	}
}

// sloSample reads the tenant's SLO counters.
func (t *tenant) sloSample() slo.Sample {
	return slo.Sample{
		Total:  t.sloTotal.Load(),
		Errors: t.sloErrors.Load(),
		Slow:   t.sloSlow.Load(),
	}
}

// drainEstimate predicts how long a request shed from tenant t should
// wait before retrying: the tenant's backlog divided across its worker
// slice at the recent mean service time. Before any evaluation completes
// it assumes a cheap one — better to invite an early retry than park
// clients a minute.
func (s *Server) drainEstimate(t *tenant) time.Duration {
	mean := math.Float64frombits(s.svcMean.Load())
	if mean <= 0 {
		mean = 0.05
	}
	drain := float64(t.queued.Load()) * mean / float64(t.workerShare)
	return time.Duration(drain * float64(time.Second))
}

// sloReport is /v1/slo's shape when tenancy is enabled: the server-wide
// judgement plus one row per tenant. Without tenants the plain
// slo.Status is served, so existing consumers see an unchanged document.
type sloReport struct {
	slo.Status
	Tenants map[string]tenantSLO `json:"tenants"`
}

// tenantSLO is one tenant's /v1/slo row: its configured shares plus its
// own burn-rate judgement.
type tenantSLO struct {
	Weight     float64 `json:"weight"`
	Workers    int     `json:"workers"`
	QueueDepth int     `json:"queue_depth"`
	CacheBytes int64   `json:"cache_bytes,omitempty"`
	slo.Status
}
