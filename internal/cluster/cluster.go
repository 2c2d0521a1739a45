// Package cluster is a deterministic discrete-event simulator of a
// fleet of rooflined replicas behind a routing tier. Each simulated
// replica prices its requests with the paper's energy roofline
// (internal/core) and serves them through the production server's
// content-addressed result cache and request-coalescing bookkeeping
// (internal/server), so fleet-level cache hit rates, coalesce ratios,
// and energy totals come from the real serving code paths — only the
// clock is virtual.
//
// Determinism is the load-bearing property: a (Scenario, policy) cell
// runs single-threaded with all randomness derived via
// stats.DeriveSeed, and parallelism exists only across cells
// (parallel.Map preserves result order), so a fleet report is
// byte-identical at any worker count. The golden tests pin exactly
// that.
package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ReplicaSpec describes one simulated replica.
type ReplicaSpec struct {
	// Machine names a catalog machine ("fermi", "gtx580", "i7-950",
	// "future") whose roofline parameters price this replica's kernels.
	Machine string `json:"machine"`
	// Precision selects the operand width ("single" or "double";
	// empty means double).
	Precision string `json:"precision,omitempty"`
	// CacheEntries bounds the replica's result cache in entries.
	CacheEntries int `json:"cache_entries"`
	// CacheBytes bounds the replica's result cache in body bytes.
	CacheBytes int64 `json:"cache_bytes"`
	// CacheTTLSeconds expires cached entries after this much simulated
	// time (0 disables expiry).
	CacheTTLSeconds float64 `json:"cache_ttl_seconds,omitempty"`
	// Model names the EnergyModel the energy-aware router prices this
	// replica's misses with ("analytic" or "blackbox"; empty means
	// analytic, which routes byte-identically to the pre-interface
	// simulator). Service times and served-energy accounting always
	// use the analytic closed forms — the replica's simulated hardware
	// is the roofline; Model only changes the router's beliefs.
	Model string `json:"model,omitempty"`
	// OperatingPoint pins the replica to one named point of its
	// machine's DVFS curve (the machine must come from the DVFS
	// catalog). Service times, served energy, idle power, and the
	// router's pricing all use the pinned parameters. Empty means full
	// clock. Requires the analytic model: a blackbox fitted at base
	// clock has no beliefs about other operating points.
	OperatingPoint string `json:"operating_point,omitempty"`
}

// Options parameterise RunScenario.
type Options struct {
	// Workers bounds the policy-level parallelism (each policy cell is
	// itself single-threaded); <1 means GOMAXPROCS.
	Workers int
	// Tracer, when non-nil, receives per-replica "replica.serve" spans
	// stamped with virtual timestamps (Track = policy*trackStride +
	// replica + 1). Tracing never affects the report.
	Tracer *trace.Tracer
	// Trace overrides the scenario's generated workload with a replayed
	// request stream (e.g. one loaded via workload.ParseTrace).
	Trace *workload.Trace
	// routeObserver, when set, is invoked with every routing decision
	// before the request is applied to the chosen replica — the hook
	// the property tests use to audit policies in situ.
	routeObserver func(now float64, req workload.Request, replica int, f *Fleet)
}

// hitBody is the synthetic response body cached per distinct key; its
// length is what the cache's byte bound meters.
var hitBody = make([]byte, 256)

// simEpoch anchors the virtual clock: simulated second s maps to
// simEpoch + s, giving the production cache's TTL arithmetic real
// time.Time values to work on.
var simEpoch = time.Unix(0, 0).UTC()

// replica is one simulated server: roofline pricing, the production
// result cache on a virtual clock, production coalescing bookkeeping,
// and a FIFO service queue.
type replica struct {
	id      int
	spec    ReplicaSpec
	prec    string // spec.Precision with the empty default spelled "double"
	class   int    // index into Fleet.classes
	params  core.Params
	model   model.EnergyModel // prices router estimates; analytic unless spec.Model overrides
	cache   *server.ResultCache
	flights *server.FlightTable[*simFlight]

	clock float64 // current simulation time, read by the cache's now()

	queue     []job // FIFO; head is queue[qhead]
	qhead     int
	busy      bool
	busyTill  float64
	queuedSvc float64 // summed service estimates of jobs behind the head

	requests  int
	coalesced int
	engine    int
	busyTime  float64
	kernelJ   float64
	maxQueue  int
}

// simFlight is the in-flight state for one coalesced key: the requests
// that joined after the leader, waiting for its completion.
type simFlight struct {
	waiters []pending
}

// pending is one request waiting inside the simulator, with the arrival
// instant latency is measured from.
type pending struct {
	req     workload.Request
	arrival float64
}

// job is one queued engine execution.
type job struct {
	p   pending
	key uint64
	svc float64 // service time, priced once at enqueue
}

// newReplica builds replica i of the fleet.
func newReplica(i int, spec ReplicaSpec) (*replica, error) {
	m, ok := machine.Find(spec.Machine)
	if !ok {
		return nil, fmt.Errorf("cluster: replica %d names unknown machine %q", i, spec.Machine)
	}
	var prec machine.Precision
	precName := spec.Precision
	switch precName {
	case "", "double":
		prec, precName = machine.Double, "double"
	case "single":
		prec = machine.Single
	default:
		return nil, fmt.Errorf("cluster: replica %d has unknown precision %q", i, spec.Precision)
	}
	params := core.FromMachine(m, prec)
	var em model.EnergyModel
	switch {
	case spec.OperatingPoint != "":
		op, found := m.Point(spec.OperatingPoint)
		if !found {
			return nil, fmt.Errorf("cluster: replica %d: machine %q has no operating point %q", i, spec.Machine, spec.OperatingPoint)
		}
		if spec.Model != "" && spec.Model != model.AnalyticName {
			return nil, fmt.Errorf("cluster: replica %d: model %q cannot price operating point %q; a model fitted at base clock has no beliefs about other points", i, spec.Model, spec.OperatingPoint)
		}
		params = params.AtOperatingPoint(op)
		em = model.NewAnalytic(params)
	case spec.Model == "" || spec.Model == model.AnalyticName:
		// Built directly from the resolved machine so DVFS-catalog-only
		// machines (the multi-SM family) work; identical parameters to
		// model.For for base catalog keys.
		em = model.NewAnalytic(params)
	default:
		var err error
		em, err = model.For(spec.Model, spec.Machine, prec)
		if err != nil {
			return nil, fmt.Errorf("cluster: replica %d: %w", i, err)
		}
	}
	r := &replica{id: i, spec: spec, prec: precName, params: params, model: em}
	r.cache = server.NewResultCache(
		spec.CacheEntries,
		spec.CacheBytes,
		time.Duration(spec.CacheTTLSeconds*float64(time.Second)),
		func() time.Time { return simEpoch.Add(time.Duration(r.clock * float64(time.Second))) },
	)
	r.flights = server.NewFlightTable[*simFlight]()
	return r, nil
}

// key returns the production cache/coalescing key this replica computes
// for req — the same hash the live server's POST /v1/eval handler uses.
func (r *replica) key(req workload.Request) uint64 {
	return server.EvalKey(r.spec.Machine, r.prec, req.Work, req.Intensity)
}

// queueLen counts requests in service or queued (coalesced waiters
// excluded: they consume no service slot).
func (r *replica) queueLen() int {
	n := len(r.queue) - r.qhead
	if r.busy {
		n++
	}
	return n
}

// pendingWork estimates the seconds of service ahead of a new arrival:
// the remainder of the in-service job plus the priced queue behind it.
func (r *replica) pendingWork(now float64) float64 {
	w := r.queuedSvc
	if r.busy && r.busyTill > now {
		w += r.busyTill - now
	}
	return w
}

// Fleet is the set of replicas one policy run routes over, exposed to
// Policy implementations for read-only probing.
type Fleet struct {
	reps       []*replica
	hitLatency float64
	// classes groups the replicas into price classes (see priceClass);
	// replica.class indexes it.
	classes []priceClass
	// estT and estE are scratch columns the energy-aware policy gathers
	// per-replica (time, energy) estimates into before classifying them
	// with the batch eq. 10 vocabulary; reused across Route calls so
	// routing allocates nothing in steady state.
	estT, estE []float64
}

// priceClass is a set of replicas whose content key and router price
// for a miss are the same functions of the request: equal machine,
// precision (empty meaning double), model and operating point. Cache
// bounds differ freely inside a class; they only change which
// replicas hit.
type priceClass struct {
	machine, prec string
	model         model.EnergyModel
	// key, capT and capE hold the content key and the miss price of
	// the request being routed, refreshed by every estimateInto call.
	key        uint64
	capT, capE float64
}

// newFleet groups reps into price classes in first-appearance order.
func newFleet(reps []*replica, hitLatency float64) *Fleet {
	type classKey struct{ machine, prec, model, point string }
	f := &Fleet{reps: reps, hitLatency: hitLatency}
	index := map[classKey]int{}
	for _, r := range reps {
		m := r.spec.Model
		if m == "" {
			m = model.AnalyticName
		}
		k := classKey{r.spec.Machine, r.prec, m, r.spec.OperatingPoint}
		c, ok := index[k]
		if !ok {
			c = len(f.classes)
			index[k] = c
			f.classes = append(f.classes, priceClass{machine: r.spec.Machine, prec: r.prec, model: r.model})
		}
		r.class = c
	}
	return f
}

// NumReplicas returns the fleet size.
func (f *Fleet) NumReplicas() int { return len(f.reps) }

// QueueLen returns replica i's current queue occupancy (in service +
// waiting, coalesced waiters excluded).
func (f *Fleet) QueueLen(i int) int { return f.reps[i].queueLen() }

// Event kinds inside the simulation heap.
const (
	evCompletion = iota // a replica finishes an engine run
	evArrival           // a closed-loop client issues its next request
)

// simEvent is one heap entry. seq breaks time ties deterministically in
// insertion order; completions sort before arrivals at equal times so a
// freed replica is visible to the router at the same instant.
type simEvent struct {
	time    float64
	kind    int
	seq     uint64
	replica int     // evCompletion
	p       pending // evArrival
}

// eventHeap is a min-heap over (time, kind, seq). Its typed push and
// pop move events by value, so scheduling allocates nothing once the
// slice has grown.
type eventHeap []simEvent

// before reports whether a sorts ahead of b.
func (a *simEvent) before(b *simEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// push adds ev and sifts it up to its place.
func (h *eventHeap) push(ev simEvent) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	*h = q
}

// pop removes and returns the earliest event; the heap must be
// non-empty.
func (h *eventHeap) pop() simEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	*h = q
	return top
}

// maxSpansPerPolicy bounds the virtual spans one policy cell records,
// so tracing a million-request scenario cannot swamp the ring buffer.
const maxSpansPerPolicy = 2000

// sim is one (scenario, policy) cell's mutable state.
type sim struct {
	fleet   *Fleet
	policy  Policy
	closed  bool
	trace   []workload.Request
	nextCli []int // per-client cursor into trace (closed loop)

	events eventHeap
	seq    uint64

	now       float64
	makespan  float64
	latencies []float64
	observer  func(now float64, req workload.Request, replica int, f *Fleet)

	tracer   *trace.Tracer
	track0   uint64
	recorded int
}

// push schedules an event.
func (s *sim) push(ev simEvent) {
	ev.seq = s.seq
	s.seq++
	s.events.push(ev)
}

// runPolicy drives the whole request stream through a fresh fleet under
// one policy and returns that cell's report. Single-threaded by
// construction: every data structure here is confined to this call.
func runPolicy(sc *Scenario, tr *workload.Trace, policy Policy, opts Options, policyIdx int) (PolicyReport, error) {
	reps := make([]*replica, len(sc.Replicas))
	for i, spec := range sc.Replicas {
		r, err := newReplica(i, spec)
		if err != nil {
			return PolicyReport{}, err
		}
		reps[i] = r
	}
	s := &sim{
		fleet:    newFleet(reps, sc.HitLatency),
		policy:   policy,
		closed:   tr.Closed,
		trace:    tr.Requests,
		observer: opts.routeObserver,
		tracer:   opts.Tracer,
		track0:   uint64(policyIdx)*trackStride + 1,
	}
	s.latencies = make([]float64, 0, len(tr.Requests))

	if s.closed {
		// Seed each client's first request; requests i < Clients belong
		// to client i exactly once under the i%C assignment.
		s.nextCli = make([]int, tr.Clients)
		for c := 0; c < tr.Clients; c++ {
			req := tr.Requests[c]
			s.push(simEvent{time: req.Time, kind: evArrival, p: pending{req: req, arrival: req.Time}})
			s.nextCli[c] = c + tr.Clients
		}
		for len(s.events) > 0 {
			s.step(s.events.pop())
		}
	} else {
		// Open loop: merge the pre-sorted arrival stream with the heap.
		next := 0
		for next < len(s.trace) || len(s.events) > 0 {
			if len(s.events) > 0 && (next >= len(s.trace) || s.events[0].time <= s.trace[next].Time) {
				s.step(s.events.pop())
				continue
			}
			req := s.trace[next]
			next++
			s.arrive(pending{req: req, arrival: req.Time})
		}
	}
	return s.report(policy.Name())
}

// trackStride spaces the trace lanes of consecutive policies so their
// replica tracks never collide.
const trackStride = 256

// step dispatches one heap event.
func (s *sim) step(ev simEvent) {
	s.now = ev.time
	switch ev.kind {
	case evCompletion:
		s.complete(ev.replica)
	case evArrival:
		s.arrive(ev.p)
	}
}

// arrive routes one request and applies the cache / coalesce / enqueue
// cascade at its destination.
func (s *sim) arrive(p pending) {
	if p.arrival > s.now {
		s.now = p.arrival
	}
	idx := s.policy.Route(s.now, p.req, s.fleet)
	if s.observer != nil {
		s.observer(s.now, p.req, idx, s.fleet)
	}
	rep := s.fleet.reps[idx]
	rep.clock = s.now
	rep.requests++
	key := rep.key(p.req)
	if _, ok := rep.cache.Get(key); ok {
		s.finish(p, s.now+s.fleet.hitLatency)
		return
	}
	if f, joined := rep.flights.Begin(key, &simFlight{}); joined {
		rep.coalesced++
		f.waiters = append(f.waiters, p)
		return
	}
	k := core.KernelAt(p.req.Work, p.req.Intensity)
	j := job{p: p, key: key, svc: rep.params.CappedTime(k)}
	rep.queue = append(rep.queue, j)
	if rep.busy {
		rep.queuedSvc += j.svc
	} else {
		s.startService(rep)
	}
	if l := rep.queueLen(); l > rep.maxQueue {
		rep.maxQueue = l
	}
}

// startService begins the head-of-queue job on an idle replica.
func (s *sim) startService(rep *replica) {
	j := rep.queue[rep.qhead]
	rep.busy = true
	rep.busyTill = s.now + j.svc
	s.push(simEvent{time: rep.busyTill, kind: evCompletion, replica: rep.id})
	s.record(rep, s.now, j.svc)
}

// record emits one virtual "replica.serve" span, bounded per policy.
func (s *sim) record(rep *replica, start, dur float64) {
	if s.tracer == nil || s.recorded >= maxSpansPerPolicy {
		return
	}
	s.recorded++
	s.tracer.Record(trace.Event{
		Name:  "replica.serve",
		Track: s.track0 + uint64(rep.id),
		Start: time.Duration(start * float64(time.Second)),
		Dur:   time.Duration(dur * float64(time.Second)),
		Tags: []trace.Tag{
			{Key: "policy", Val: s.policy.Name()},
			{Key: "replica", Val: rep.id},
			{Key: "machine", Val: rep.spec.Machine},
		},
	})
}

// complete finishes the in-service job on replica id: account the
// engine run, populate the cache, release the coalesced waiters, and
// pull the next job.
func (s *sim) complete(id int) {
	rep := s.fleet.reps[id]
	rep.clock = s.now
	j := rep.queue[rep.qhead]
	rep.qhead++
	if rep.qhead == len(rep.queue) {
		rep.queue = rep.queue[:0]
		rep.qhead = 0
	}
	rep.engine++
	rep.busyTime += j.svc
	rep.kernelJ += rep.params.CappedEnergy(core.KernelAt(j.p.req.Work, j.p.req.Intensity))
	rep.cache.Put(j.key, hitBody)
	s.finish(j.p, s.now)
	if f, ok := rep.flights.Lookup(j.key); ok {
		for _, w := range f.waiters {
			s.finish(w, s.now)
		}
		rep.flights.Finish(j.key)
	}
	rep.busy = false
	if rep.qhead < len(rep.queue) {
		nxt := rep.queue[rep.qhead]
		rep.queuedSvc -= nxt.svc
		if rep.queuedSvc < 0 {
			rep.queuedSvc = 0
		}
		s.startService(rep)
	}
}

// finish completes one request at time done: record its latency and,
// in a closed-loop run, wake its client for the next request.
func (s *sim) finish(p pending, done float64) {
	s.latencies = append(s.latencies, done-p.arrival)
	if done > s.makespan {
		s.makespan = done
	}
	if !s.closed {
		return
	}
	c := p.req.Client
	i := s.nextCli[c]
	if i >= len(s.trace) {
		return
	}
	s.nextCli[c] = i + len(s.nextCli)
	req := s.trace[i]
	at := done + req.Time // Time is the think delay for closed traces
	s.push(simEvent{time: at, kind: evArrival, p: pending{req: req, arrival: at}})
}

// RunScenario generates (or replays) the scenario's workload and drives
// it through a fresh fleet under every listed policy. Policy cells run
// in parallel up to opts.Workers; each cell is single-threaded and owns
// its fleet, so the report bytes are independent of the worker count.
func RunScenario(ctx context.Context, sc Scenario, opts Options) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	tr := opts.Trace
	if tr == nil {
		var err error
		tr, err = workload.Generate(sc.Workload)
		if err != nil {
			return nil, err
		}
	}
	policies := sc.Policies
	if len(policies) == 0 {
		policies = PolicyNames()
	}
	cells, err := parallel.Map(ctx, len(policies), opts.Workers, func(_ context.Context, i int) (PolicyReport, error) {
		p, err := NewPolicy(policies[i], len(sc.Replicas), stats.DeriveSeed(sc.Workload.Seed, labelPolicy, stats.HashLabel(policies[i])))
		if err != nil {
			return PolicyReport{}, err
		}
		return runPolicy(&sc, tr, p, opts, i)
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		Scenario:    sc.Name,
		Description: sc.Desc,
		Replicas:    len(sc.Replicas),
		Requests:    len(tr.Requests),
		Workload:    tr.Spec.Kind,
		Policies:    cells,
	}, nil
}

// labelPolicy derives per-policy seeds from the workload seed.
const labelPolicy = 0x504f4c43 // "POLC"
