package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/trace"
)

// layerUnits gives every per-layer metric's unit.
var layerUnits = map[string]string{
	"host.calib_us":                    "us",
	"host.calib_range":                 "ratio",
	"http.overhead_us.p50":             "us",
	"server.hit_us.p50":                "us",
	"server.hit_us.p90":                "us",
	"server.miss_us.p50":               "us",
	"server.miss_us.p90":               "us",
	"server.coalesced_us.p50":          "us",
	"server.direct_hit_ns":             "ns",
	"server.direct_miss_ns":            "ns",
	"server.miss_self_us.p50":          "us",
	"cache.hit_ratio":                  "ratio",
	"cache.evictions":                  "1/req",
	"flight.coalesced_ratio":           "ratio",
	"engine.runs_per_req":              "1/req",
	"model.eval_ns":                    "ns",
	"model.batch_ns_per_point":         "ns",
	"engine.run_ms.p50":                "ms",
	"engine.wait_ms.p50":               "ms",
	"workload.generate_s":              "s",
	"cluster.cell_s.round_robin":       "s",
	"cluster.cell_s.least_loaded":      "s",
	"cluster.cell_s.cache_affinity":    "s",
	"cluster.cell_s.energy_aware":      "s",
	"cluster.routing_s":                "s",
	"cluster.allocs_per_req":           "1/req",
	"cluster.bytes_per_req":            "B/req",
	"cluster.hit_ratio.round_robin":    "ratio",
	"cluster.hit_ratio.least_loaded":   "ratio",
	"cluster.hit_ratio.cache_affinity": "ratio",
	"cluster.hit_ratio.energy_aware":   "ratio",
	"cluster.j_per_req.round_robin":    "J",
	"cluster.j_per_req.least_loaded":   "J",
	"cluster.j_per_req.cache_affinity": "J",
	"cluster.j_per_req.energy_aware":   "J",
	"go.allocs_per_req":                "1/req",
	"go.bytes_per_req":                 "B/req",
	"go.gc_cycles":                     "1/s",
	"trace.overhead_ratio":             "ratio",
}

// traceCapacity bounds the span ring: one traced serving window's
// client and server spans fit with room to spare.
const traceCapacity = 1 << 18

// keepSpans bounds how many spans of each traced workload go into the
// Chrome trace file.
const keepSpans = 4096

// tracedRun collects one traced run across workloads.
type tracedRun struct {
	cal       *calibrator
	tracer    *trace.Tracer
	seed      int64
	attempted int64
	failed    int64
	problems  []string
	kept      []trace.Event
	layers    map[string]float64
}

// runTraced measures the named workload traced, then briefly probes the
// other workloads so that every per-layer metric is measured on the
// workload that exercises its layer. A metric the named workload
// measures itself comes from it.
func runTraced(name string, seed int64, seconds float64, cal *calibrator) (*outcome, error) {
	tr := &tracedRun{
		cal:    cal,
		tracer: trace.New(trace.Config{Capacity: traceCapacity}),
		seed:   seed,
		layers: map[string]float64{},
	}
	start := time.Now()
	// The probes of the other workloads take about this long; the named
	// workload gets the rest of the run.
	probeCost := 9.0
	if name != "fleet_1m" {
		probeCost = 12
	}
	primary := max(seconds-probeCost, seconds/2)
	if err := tr.workload(name, primary, true); err != nil {
		return nil, err
	}
	for _, w := range workloads {
		if w != name {
			if err := tr.workload(w, 0, false); err != nil {
				return nil, err
			}
		}
	}
	tr.layers["host.calib_us"] = cal.calibUs()
	tr.layers["host.calib_range"] = cal.calibRange()

	path, err := tr.writeChrome(name)
	if err != nil {
		return nil, err
	}
	return &outcome{
		attempted: tr.attempted,
		failed:    tr.failed,
		problems:  tr.problems,
		layers:    tr.layers,
		detail: map[string]any{
			"trace_file":     path,
			"traced_seconds": time.Since(start).Seconds(),
		},
	}, nil
}

// workload runs one traced workload and merges its per-layer metrics;
// values already present (from the named workload) are kept.
func (tr *tracedRun) workload(name string, seconds float64, primary bool) error {
	var m map[string]float64
	var err error
	if name == "fleet_1m" {
		m, err = tr.fleet(primary)
	} else {
		m, err = tr.serving(name, seconds, primary)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for k, v := range m {
		if _, ok := tr.layers[k]; !ok {
			tr.layers[k] = v
		}
	}
	tr.keep()
	return nil
}

// keep moves the first spans in the ring into the Chrome trace file's
// set, then empties the ring.
func (tr *tracedRun) keep() {
	evs := tr.tracer.Events()
	tr.kept = append(tr.kept, evs[:min(len(evs), keepSpans)]...)
	tr.tracer.Reset()
}

// writeChrome writes the kept spans as Chrome trace JSON under
// .bench_build/ and returns the file's path.
func (tr *tracedRun) writeChrome(name string) (string, error) {
	out := trace.New(trace.Config{Capacity: len(tr.kept) + 1})
	for _, ev := range tr.kept {
		out.Record(ev)
	}
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", name, tr.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := out.WriteChrome(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// note folds a run's request outcomes into the traced run's totals.
func (tr *tracedRun) note(attempted, failed int64, problems []string) {
	tr.attempted += attempted
	tr.failed += failed
	tr.problems = append(tr.problems, problems...)
}

// requestSpans pairs each request's client span with its server span.
type requestSpans struct {
	client, handler time.Duration
	cache           string
}

// spanSamples holds one traced window's per-request timings, in
// normalized µs.
type spanSamples struct {
	overhead, hit, miss, coalesced []float64
}

// collect reads the window's spans: a request's HTTP overhead is its
// client span's self time, the client span minus the server span it
// covers.
func (s *spanSamples) collect(evs []trace.Event, scale float64) {
	byTrack := map[uint64]*requestSpans{}
	for _, ev := range evs {
		r := byTrack[ev.Track]
		if r == nil {
			r = &requestSpans{}
			byTrack[ev.Track] = r
		}
		switch ev.Name {
		case "client.request":
			r.client = ev.Dur
		case "server.handler":
			r.handler = ev.Dur
			if len(ev.Tags) > 0 {
				r.cache, _ = ev.Tags[0].Val.(string)
			}
		}
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 * scale }
	for _, r := range byTrack {
		if r.client == 0 || r.handler == 0 {
			continue
		}
		s.overhead = append(s.overhead, us(r.client-r.handler))
		switch r.cache {
		case "hit":
			s.hit = append(s.hit, us(r.handler))
		case "miss":
			s.miss = append(s.miss, us(r.handler))
		case "coalesced":
			s.coalesced = append(s.coalesced, us(r.handler))
		}
	}
}

// counters reads the server's counters through a GET /metrics scrape,
// which also refreshes its cache gauges.
func counters(tracer *trace.Tracer, srv *server.Server) map[string]float64 {
	out := map[string]float64{}
	spanned(tracer, "server.Metrics", func() {
		w := &directWriter{h: http.Header{}}
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		reg := srv.Metrics()
		for _, c := range []string{"requests_eval_total", "requests_evalbatch_total", "requests_campaign_total",
			"cache_hits_total", "engine_runs_total", "coalesced_total"} {
			out[c] = float64(reg.Counter(c).Value())
		}
		out["cache_evictions"] = float64(reg.Gauge("cache_evictions").Value())
	})
	return out
}

// serving runs one serving workload traced: set-up, then windows that
// alternate untraced and traced, then direct probes of the server and
// the model on the workload's own bodies.
func (tr *tracedRun) serving(name string, seconds float64, primary bool) (map[string]float64, error) {
	svc := newService(name, tr.seed)
	run, err := newServingRun(svc, tr.seed, tr.cal, tr.tracer, timingHandler(tr.tracer), 1)
	if err != nil {
		return nil, err
	}
	srv := run.target.srv
	c0 := counters(tr.tracer, srv)
	var plain, traced []*window
	var spans spanSamples
	start := time.Now()
	for len(traced) < 1 || (primary && (len(traced) < 2 || time.Since(start).Seconds() < seconds)) {
		plain = append(plain, run.measure(nil, nil))
		tr.keep()
		w := run.measure(tr.tracer, nil)
		traced = append(traced, w)
		spans.collect(tr.tracer.Events(), w.scale)
	}
	c1 := counters(tr.tracer, srv)
	if err := run.finish(); err != nil {
		return nil, err
	}
	tr.note(run.attempted, run.failed, run.problems)

	m := map[string]float64{}
	if len(spans.overhead) > 0 {
		m["http.overhead_us.p50"] = quantile(spans.overhead, 0.5)
	}
	if len(spans.hit) > 0 {
		m["server.hit_us.p50"] = quantile(spans.hit, 0.5)
		m["server.hit_us.p90"] = quantile(spans.hit, 0.9)
	}
	if len(spans.miss) > 0 {
		m["server.miss_us.p50"] = quantile(spans.miss, 0.5)
		m["server.miss_us.p90"] = quantile(spans.miss, 0.9)
	}
	if len(spans.coalesced) > 0 {
		m["server.coalesced_us.p50"] = quantile(spans.coalesced, 0.5)
	}
	reqName := map[string]string{"eval_zipf": "requests_eval_total", "evalbatch_miss": "requests_evalbatch_total",
		"campaign_mix": "requests_campaign_total"}[name]
	reqs := c1[reqName] - c0[reqName]
	m["cache.hit_ratio"] = (c1["cache_hits_total"] - c0["cache_hits_total"]) / reqs
	m["cache.evictions"] = (c1["cache_evictions"] - c0["cache_evictions"]) / reqs
	if name == "campaign_mix" {
		m["flight.coalesced_ratio"] = (c1["coalesced_total"] - c0["coalesced_total"]) / reqs
		m["engine.runs_per_req"] = (c1["engine_runs_total"] - c0["engine_runs_total"]) / reqs
	}
	if primary {
		var allocs, allocB, gcs, ok, sec float64
		for _, w := range plain {
			allocs += float64(w.allocs)
			allocB += float64(w.allocB)
			gcs += float64(w.gcs)
			ok += float64(w.okRequests())
			sec += w.raw.Seconds() * w.scale
		}
		m["go.allocs_per_req"] = allocs / ok
		m["go.bytes_per_req"] = allocB / ok
		m["go.gc_cycles"] = gcs / sec
		m["trace.overhead_ratio"] = medianOver(plain, func(w *window) float64 { return w.rps(true) }) /
			medianOver(traced, func(w *window) float64 { return w.rps(true) })
	}

	hit, miss, err := tr.direct(svc)
	if err != nil {
		return nil, err
	}
	m["server.direct_hit_ns"], m["server.direct_miss_ns"] = hit, miss
	modelUs, err := tr.model(svc, m)
	if err != nil {
		return nil, err
	}
	if p50, ok := m["server.miss_us.p50"]; ok {
		m["server.miss_self_us.p50"] = p50 - modelUs
	}
	return m, nil
}

// directProbes is how many of the workload's bodies the direct probe
// posts, each twice: a miss, then a hit.
var directProbes = map[string]int{"/v1/eval": 256, "/v1/evalbatch": 128, "/v1/campaign": 24}

// direct posts the workload's own bodies to a fresh server through
// ServeHTTP with no network and returns the median normalized time of a
// hit and of a miss, in ns.
func (tr *tracedRun) direct(svc service) (hitNs, missNs float64, err error) {
	var srv *server.Server
	spanned(tr.tracer, "server.New", func() { srv = server.New(server.Config{}) })
	defer srv.Close()
	d := newDirect(srv.Handler(), svc.path())
	var hits, misses []float64
	_, scale := tr.cal.slice(func() {
		var body []byte
		for j := 0; j < directProbes[svc.path()] && err == nil; j++ {
			body = svc.probe(j, body[:0])
			// The first post misses and the second hits, unless an earlier
			// probe body was the same request.
			for range 2 {
				t0 := time.Now()
				status, source, _ := d.post(body)
				ns := float64(time.Since(t0).Nanoseconds())
				switch {
				case status != http.StatusOK:
					err = fmt.Errorf("direct probe %d: status %d", j, status)
				case source == "hit":
					hits = append(hits, ns)
				case source == "miss":
					misses = append(misses, ns)
				default:
					err = fmt.Errorf("direct probe %d: X-Cache %q", j, source)
				}
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return median(hits) * scale, median(misses) * scale, nil
}

// model times the model layer on the workload's own inputs, sets its
// per-layer metrics in m, and returns the model's share of one miss in
// µs.
func (tr *tracedRun) model(svc service, m map[string]float64) (float64, error) {
	var share float64
	var err error
	switch s := svc.(type) {
	case *evalZipf:
		const reps = 20
		var forNs, evalNs time.Duration
		_, scale := tr.cal.slice(func() {
			ems := make([]model.EnergyModel, len(s.kernels))
			forNs = spanned(tr.tracer, "model.For", func() {
				for r := 0; r < reps && err == nil; r++ {
					for i := range ems {
						ems[i], err = model.For("", evalMachine, machine.Double)
					}
				}
			})
			p := core.FromMachine(machine.Catalog()[evalMachine], machine.Double)
			evalNs = spanned(tr.tracer, "metrics.EvaluateModel", func() {
				for r := 0; r < reps && err == nil; r++ {
					for i, k := range s.kernels {
						_, err = metrics.EvaluateModel(ems[i], p, k)
					}
				}
			})
		})
		calls := float64(reps * len(s.kernels))
		ns := float64(forNs.Nanoseconds()+evalNs.Nanoseconds()) / calls * scale
		m["model.eval_ns"] = ns
		share = ns / 1e3
	case *evalBatchMiss:
		var perCall []float64
		_, scale := tr.cal.slice(func() {
			var sc metrics.ScoreColumns
			var b core.Batch
			work := make([]float64, batchPoints)
			q := make([]float64, batchPoints)
			in := make([]float64, batchPoints)
			for i := range work {
				work[i] = 1e9
			}
			for j := 0; j < directProbes[s.path()] && err == nil; j++ {
				i := int64(j)
				t := i % batchTemplates
				in[0] = s.uniqueIntensity(i)
				copy(in[1:], s.rest[t])
				core.QAtInto(q, work, in)
				p := s.params[t]
				d := spanned(tr.tracer, "model.For", func() {
					var em model.EnergyModel
					em, err = model.For("", s.machines[t], machine.Double)
					if err == nil {
						spanned(tr.tracer, "metrics.EvaluateBatchModel", func() {
							err = metrics.EvaluateBatchModel(em, p, &sc, &b, work, q)
						})
					}
				})
				perCall = append(perCall, float64(d.Nanoseconds()))
			}
		})
		med := median(perCall) * scale
		m["model.batch_ns_per_point"] = med / batchPoints
		share = med / 1e3
	case *campaignMix:
		var runs []float64
		workers := runtime.GOMAXPROCS(0)
		for j := 0; j < 8 && err == nil; j++ {
			cfg := s.configs[mix64(uint64(tr.seed)+uint64(j))%campaignConfigs]
			var d time.Duration
			_, scale := tr.cal.slice(func() {
				d = spanned(tr.tracer, "campaign.RunParallel", func() {
					_, err = campaign.RunParallel(context.Background(), cfg, workers)
				})
			})
			runs = append(runs, float64(d.Nanoseconds())/1e6*scale)
		}
		p50 := median(runs)
		m["engine.run_ms.p50"] = p50
		if miss, ok := m["server.miss_us.p50"]; ok {
			m["engine.wait_ms.p50"] = miss/1e3 - p50
		}
		share = p50 * 1e3
	}
	return share, err
}

// fleet runs fleet_1m traced: set-up with workload.Generate, then one
// cluster.RunScenario per policy. As the named workload it also runs an
// untraced pass first, for the tracing overhead and the runtime's
// allocation figures.
func (tr *tracedRun) fleet(primary bool) (map[string]float64, error) {
	f, err := newFleetRun(tr.seed, 0, 1, tr.cal, tr.tracer)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{"workload.generate_s": median(f.setups)}
	var plain []fleetCell
	if primary {
		f.tracer = nil
		if plain, err = f.pass(nil); err != nil {
			return nil, err
		}
		f.tracer = tr.tracer
	}
	cells, err := f.pass(nil)
	if err != nil {
		return nil, err
	}
	tr.note(f.cells, f.failed, f.problems)
	n := float64(len(f.trace.Requests))
	var allocs, allocB float64
	for _, c := range cells {
		m["cluster.cell_s."+c.policy] = c.norm()
		m["cluster.hit_ratio."+c.policy] = c.report.CacheHitRate
		m["cluster.j_per_req."+c.policy] = c.report.EnergyPerRequest
		allocs += float64(c.allocs)
		allocB += float64(c.allocB)
	}
	m["cluster.routing_s"] = m["cluster.cell_s.energy_aware"] - m["cluster.cell_s.round_robin"]
	m["cluster.allocs_per_req"] = allocs / (n * float64(len(cells)))
	m["cluster.bytes_per_req"] = allocB / (n * float64(len(cells)))
	if primary {
		var pa, pb, gcs, sec float64
		for _, c := range plain {
			pa += float64(c.allocs)
			pb += float64(c.allocB)
			gcs += float64(c.gcs)
			sec += c.norm()
		}
		m["go.allocs_per_req"] = pa / (n * float64(len(plain)))
		m["go.bytes_per_req"] = pb / (n * float64(len(plain)))
		m["go.gc_cycles"] = gcs / sec
		rawPlain, _ := passStats(plain, int(n), true)
		rawTraced, _ := passStats(cells, int(n), true)
		m["trace.overhead_ratio"] = rawPlain / rawTraced
	}
	return m, nil
}
