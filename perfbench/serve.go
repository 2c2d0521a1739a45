package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/trace"
)

// service is one serving workload: the request stream it sends to
// rooflined and the checks every reply must pass.
type service interface {
	// path is the endpoint the stream posts to.
	path() string
	// setup generates the request stream from the seed. It runs inside
	// every timed set-up.
	setup(seed int64) error
	// prepare builds what the checks compare against. It runs once,
	// outside the timed set-ups.
	prepare() error
	// next appends client c's next request body to dst and returns the
	// stream slot it came from.
	next(c int, dst []byte) ([]byte, int64)
	// check validates one reply and prices it: a computed reply returns
	// its capped roofline energy and time. problem is empty on success.
	check(slot int64, source string, body []byte) (problem string, joules, seconds float64)
	// verify runs the end-of-run checks against the server's counters
	// and a fresh server.
	verify(srv *server.Server, t tally) []string
	// warmup is the number of requests that fill the cache in set-up.
	warmup() int
	// probe appends the j-th body of the direct probes to dst: a body
	// of the workload's kind that the closed loop does not send first.
	probe(j int, dst []byte) []byte
}

// tally is the client's count of replies by X-Cache provenance.
type tally struct {
	requests, hits, misses, coalesced int64
}

func (t *tally) add(o tally) {
	t.requests += o.requests
	t.hits += o.hits
	t.misses += o.misses
	t.coalesced += o.coalesced
}

// conns is the closed loop's client count: one keep-alive connection
// per CPU, at most.
func conns() int { return gomaxprocs() }

// servingHost prices the residency bill: the π0 of the machine the
// service is modeled as running on.
var servingHost = core.FromMachine(machine.Catalog()["gtx580"], machine.Double)

// target is one running rooflined instance behind a loopback listener.
type target struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	tr     *http.Transport
	served chan error
	tally  tally
}

// startTarget starts a server with default configuration on a loopback
// port. wrap, when non-nil, wraps the handler (timing or fault
// injection).
func startTarget(tracer *trace.Tracer, wrap func(http.Handler) http.Handler) (*target, error) {
	var srv *server.Server
	spanned(tracer, "server.New", func() { srv = server.New(server.Config{}) })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	t := &target{
		srv:    srv,
		hs:     &http.Server{Handler: h},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	t.tr = &http.Transport{
		MaxIdleConns:        conns(),
		MaxIdleConnsPerHost: conns(),
		MaxConnsPerHost:     conns(),
		DisableCompression:  true,
	}
	t.client = &http.Client{Transport: t.tr, Timeout: 60 * time.Second}
	go func() { t.served <- t.hs.Serve(ln) }()
	return t, nil
}

// stop closes the listener and connections and waits for Serve to
// return.
func (t *target) stop() error {
	t.tr.CloseIdleConnections()
	err := t.hs.Close()
	if serr := <-t.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	t.srv.Close()
	return err
}

// window is what one closed-loop window measured.
type window struct {
	raw       time.Duration
	scale     float64
	latencies []float64 // raw µs
	tally     tally
	failed    int64
	problems  []string
	joules    float64 // computed replies' capped energy
	busy      float64 // computed replies' capped time, s
	allocs    uint64
	allocB    uint64
	gcs       uint64
}

// okRequests is the number of replies that passed every check.
func (w *window) okRequests() int64 { return w.tally.requests - w.failed }

// rps is successful requests per normalized second.
func (w *window) rps(normalized bool) float64 {
	sec := w.raw.Seconds()
	if normalized {
		sec *= w.scale
	}
	return float64(w.okRequests()) / sec
}

// latencyQ is the q-quantile of the window's latencies in µs.
func (w *window) latencyQ(q float64, normalized bool) float64 {
	v := quantile(w.latencies, q)
	if normalized {
		v *= w.scale
	}
	return v
}

// joulesPerReq prices the window the way cmd/loadgen prices a run: the
// capped roofline energy of every computed reply plus π0 for the
// (normalized) wall time not already billed inside one.
func (w *window) joulesPerReq(normalized bool) float64 {
	wall := w.raw.Seconds()
	if normalized {
		wall *= w.scale
	}
	idle := wall - w.busy
	if idle < 0 {
		idle = 0
	}
	return (w.joules + servingHost.Pi0*idle) / float64(w.tally.requests)
}

// clientTrace links a client span to the server span of the same
// request: the client stamps its request id in this header and the
// timing handler records its span on that id's track.
const clientTrace = "X-Bench-Request"

// loop drives the closed loop: conns() clients, one request in flight
// each, until the deadline passes or count requests have been sent
// (count > 0). tracer, when non-nil, records one client span per
// request.
func loop(t *target, svc service, tracer *trace.Tracer, deadline time.Time, count int64) *window {
	n := conns()
	type clientOut struct {
		lat      []float64
		tally    tally
		failed   int64
		problems []string
		joules   float64
		busy     float64
	}
	if a, ok := svc.(interface{ align() }); ok {
		a.align()
	}
	outs := make([]clientOut, n)
	var sent atomic.Int64
	var ids atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &outs[c]
			o.lat = make([]float64, 0, 1<<14)
			var reqBuf []byte
			var resp bytes.Buffer
			fail := func(p string) {
				o.failed++
				if len(o.problems) < 5 {
					o.problems = append(o.problems, p)
				}
			}
			for {
				if count > 0 {
					if sent.Add(1) > count {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				var slot int64
				reqBuf, slot = svc.next(c, reqBuf[:0])
				req, err := http.NewRequest(http.MethodPost, t.url+svc.path(), bytes.NewReader(reqBuf))
				if err != nil {
					o.tally.requests++
					fail(err.Error())
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				var id uint64
				var ts time.Duration
				if tracer != nil {
					id = ids.Add(1)
					req.Header.Set(clientTrace, strconv.FormatUint(id, 10))
					ts = tracer.Now()
				}
				t0 := time.Now()
				r, err := t.client.Do(req)
				if err == nil {
					resp.Reset()
					_, err = resp.ReadFrom(r.Body)
					r.Body.Close()
				}
				lat := time.Since(t0)
				o.tally.requests++
				if err != nil {
					fail(err.Error())
					continue
				}
				if tracer != nil {
					tracer.Record(trace.Event{Name: "client.request", Track: id, Start: ts, Dur: tracer.Now() - ts})
				}
				source := r.Header.Get("X-Cache")
				switch source {
				case "hit":
					o.tally.hits++
				case "miss":
					o.tally.misses++
				case "coalesced":
					o.tally.coalesced++
				}
				if r.StatusCode != http.StatusOK {
					fail(fmt.Sprintf("slot %d: status %d", slot, r.StatusCode))
					continue
				}
				problem, j, s := svc.check(slot, source, resp.Bytes())
				if problem != "" {
					fail(problem)
					continue
				}
				o.joules += j
				o.busy += s
				o.lat = append(o.lat, float64(lat.Nanoseconds())/1e3)
			}
		}()
	}
	wg.Wait()
	w := &window{}
	for i := range outs {
		o := &outs[i]
		w.latencies = append(w.latencies, o.lat...)
		w.tally.add(o.tally)
		w.failed += o.failed
		w.problems = append(w.problems, o.problems...)
		w.joules += o.joules
		w.busy += o.busy
	}
	t.tally.add(w.tally)
	return w
}

// timingHandler wraps the server's handler and records one
// "server.handler" span per request that carries a client span id, on
// that span's track, tagged with the reply's X-Cache provenance.
// Requests from untraced windows pay one header lookup.
func timingHandler(tracer *trace.Tracer) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id, err := strconv.ParseUint(r.Header.Get(clientTrace), 10, 64)
			if err != nil {
				h.ServeHTTP(w, r)
				return
			}
			ts := tracer.Now()
			h.ServeHTTP(w, r)
			tracer.Record(trace.Event{
				Name:  "server.handler",
				Track: id,
				Start: ts,
				Dur:   tracer.Now() - ts,
				Tags:  []trace.Tag{{Key: "cache", Val: w.Header().Get("X-Cache")}},
			})
		})
	}
}

// servingSetup is one timed set-up of a serving workload: server start,
// loopback listener, request stream generation, and warm-up from the
// workload's own stream.
func servingSetup(svc service, seed int64, tracer *trace.Tracer, wrap func(http.Handler) http.Handler) (*target, *window, error) {
	if err := svc.setup(seed); err != nil {
		return nil, nil, err
	}
	t, err := startTarget(tracer, wrap)
	if err != nil {
		return nil, nil, err
	}
	w := loop(t, svc, nil, time.Time{}, int64(svc.warmup()))
	return t, w, nil
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// windowLen is one serving window's length.
const windowLen = time.Second

// servingRun is the state one serving-workload run carries from set-up
// through its measured windows to its final checks.
type servingRun struct {
	svc       service
	cal       *calibrator
	target    *target
	setups    []float64 // normalized s
	setupRaw  []float64 // raw s
	attempted int64
	failed    int64
	problems  []string
}

// newServingRun sets the workload up setupRepeats times, each between
// two calibrations, and keeps the last server.
func newServingRun(svc service, seed int64, cal *calibrator, tracer *trace.Tracer, wrap func(http.Handler) http.Handler, repeats int) (*servingRun, error) {
	if err := svc.prepare(); err != nil {
		return nil, err
	}
	run := &servingRun{svc: svc, cal: cal}
	for i := 0; i < repeats; i++ {
		if run.target != nil {
			if err := run.target.stop(); err != nil {
				return nil, err
			}
		}
		var t *target
		var w *window
		var err error
		raw, scale := cal.slice(func() { t, w, err = servingSetup(svc, seed, tracer, wrap) })
		if err != nil {
			return nil, err
		}
		run.target = t
		run.note(w)
		run.setups = append(run.setups, raw.Seconds()*scale)
		run.setupRaw = append(run.setupRaw, raw.Seconds())
	}
	return run, nil
}

// note folds a window's request outcomes into the run's totals.
func (r *servingRun) note(w *window) {
	r.attempted += w.tally.requests
	r.failed += w.failed
	for _, p := range w.problems {
		if len(r.problems) < 10 {
			r.problems = append(r.problems, p)
		}
	}
}

// measure runs one calibrated window. heap, when non-nil, samples the
// live heap while the window runs.
func (r *servingRun) measure(tracer *trace.Tracer, heap *heapSampler) *window {
	var w *window
	var o0, b0, g0 uint64
	raw, scale := r.cal.slice(func() {
		if heap != nil {
			heap.start()
		}
		o0, b0, g0 = allocStats()
		w = loop(r.target, r.svc, tracer, time.Now().Add(windowLen), 0)
		o1, b1, g1 := allocStats()
		w.allocs, w.allocB, w.gcs = o1-o0, b1-b0, g1-g0
		if heap != nil {
			heap.end()
		}
	})
	w.raw, w.scale = raw, scale
	r.note(w)
	return w
}

// finish runs the end-of-run checks and stops the server.
func (r *servingRun) finish() error {
	for _, p := range r.svc.verify(r.target.srv, r.target.tally) {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, p)
		}
	}
	return r.target.stop()
}

// runServing is the untraced serving measurement: windows until the
// run's time is spent, each normalized by its calibration pair.
func runServing(svc service, seed int64, seconds float64, cal *calibrator) (*outcome, error) {
	run, err := newServingRun(svc, seed, cal, nil, nil, setupRepeats)
	if err != nil {
		return nil, err
	}
	heap := &heapSampler{}
	var ws []*window
	start := time.Now()
	for len(ws) < 3 || time.Since(start).Seconds() < seconds {
		ws = append(ws, run.measure(nil, heap))
	}
	if err := run.finish(); err != nil {
		return nil, err
	}
	out := &outcome{
		attempted: run.attempted,
		failed:    run.failed,
		problems:  run.problems,
		e2e:       map[string]float64{},
		raw:       map[string]float64{},
		detail:    map[string]any{},
	}
	for _, norm := range []bool{true, false} {
		m := out.e2e
		if !norm {
			m = out.raw
		}
		m["rps"] = medianOver(ws, func(w *window) float64 { return w.rps(norm) })
		m["p50_us"] = medianOver(ws, func(w *window) float64 { return w.latencyQ(0.50, norm) })
		m["p90_us"] = medianOver(ws, func(w *window) float64 { return w.latencyQ(0.90, norm) })
		m["j_per_req"] = medianOver(ws, func(w *window) float64 { return w.joulesPerReq(norm) })
		if norm {
			m["setup_s"] = median(run.setups)
		} else {
			m["setup_s"] = median(run.setupRaw)
		}
	}
	out.e2e["ok_ratio"] = okRatio(run.attempted, run.failed)
	out.e2e["peak_heap_mb"] = heap.peakMB()
	var p99 []float64
	var samples int
	for _, w := range ws {
		for _, l := range w.latencies {
			p99 = append(p99, l*w.scale)
		}
		samples += len(w.latencies)
	}
	out.detail["windows"] = len(ws)
	out.detail["p99_us"] = quantile(p99, 0.99)
	out.detail["latency_samples"] = samples
	out.detail["samples_beyond_p99"] = samples / 100
	out.detail["tally"] = map[string]int64{
		"requests": run.target.tally.requests, "hits": run.target.tally.hits,
		"misses": run.target.tally.misses, "coalesced": run.target.tally.coalesced,
	}
	return out, nil
}

// medianOver is the median of f over the windows.
func medianOver(ws []*window, f func(*window) float64) float64 {
	vs := make([]float64, len(ws))
	for i, w := range ws {
		vs[i] = f(w)
	}
	return median(vs)
}

// okRatio is the share of attempted requests that passed every check.
func okRatio(attempted, failed int64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}

// spanned runs fn inside a span named name when tracer is non-nil.
func spanned(tracer *trace.Tracer, name string, fn func()) time.Duration {
	_, sp := tracer.StartRoot(context.Background(), name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	sp.End()
	return d
}
