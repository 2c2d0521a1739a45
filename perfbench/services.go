package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/workload"
)

// directWriter is a reusable ResponseWriter for driving ServeHTTP with
// no network: it keeps the status, headers and body of one reply.
type directWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

// Header returns the reply's header map.
func (w *directWriter) Header() http.Header { return w.h }

// WriteHeader records the reply's status.
func (w *directWriter) WriteHeader(status int) { w.status = status }

// Write appends to the reply's body.
func (w *directWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// direct posts bodies straight into a handler through ServeHTTP.
type direct struct {
	h    http.Handler
	path string
	w    directWriter
}

func newDirect(h http.Handler, path string) *direct {
	return &direct{h: h, path: path, w: directWriter{h: http.Header{}}}
}

// post serves body once and returns the reply's status, X-Cache and
// body; the body is valid until the next post.
func (d *direct) post(body []byte) (int, string, []byte) {
	clear(d.w.h)
	d.w.status = http.StatusOK
	d.w.body.Reset()
	req := httptest.NewRequest(http.MethodPost, d.path, bytes.NewReader(body))
	d.h.ServeHTTP(&d.w, req)
	return d.w.status, d.w.h.Get("X-Cache"), d.w.body.Bytes()
}

// freshBody is body's reply from a fresh server through ServeHTTP.
func freshBody(path string, body []byte) ([]byte, error) {
	s := server.New(server.Config{})
	defer s.Close()
	status, _, out := newDirect(s.Handler(), path).post(body)
	if status != http.StatusOK {
		return nil, fmt.Errorf("fresh server: status %d", status)
	}
	return append([]byte(nil), out...), nil
}

// mix64 is SplitMix64's finalizer, used to pick seeded samples.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// ---- eval_zipf --------------------------------------------------------

// evalZipf posts /v1/eval with Zipf(1.1) popularity over 500 keys.
type evalZipf struct {
	seed    int64
	stream  []int32  // key index per request, cycled
	bodies  [][]byte // request body per key index
	kernels []core.Kernel
	refs    [][]byte // fresh-server reply per key index
	pos     atomic.Int64
}

const (
	evalKeys    = 500
	evalStream  = 1 << 16
	evalMachine = "gtx580"
)

func (e *evalZipf) path() string { return "/v1/eval" }
func (e *evalZipf) warmup() int  { return 4096 }

func (e *evalZipf) setup(seed int64) error {
	e.seed = seed
	tr, err := workload.Generate(workload.Spec{
		Kind: workload.Poisson, Rate: 1000, Requests: evalStream, Keys: evalKeys,
		ZipfS: 1.1, WorkFlops: 1e9, LoIntensity: 0.5, HiIntensity: 8, Seed: seed,
	})
	if err != nil {
		return err
	}
	index := map[uint64]int32{}
	e.stream = make([]int32, len(tr.Requests))
	e.bodies, e.kernels = e.bodies[:0], e.kernels[:0]
	for i, r := range tr.Requests {
		k, ok := index[r.Key]
		if !ok {
			k = int32(len(e.bodies))
			index[r.Key] = k
			e.bodies = append(e.bodies, evalBody(evalMachine, r.Work, r.Intensity))
			e.kernels = append(e.kernels, core.KernelAt(r.Work, r.Intensity))
		}
		e.stream[i] = k
	}
	e.pos.Store(0)
	return nil
}

// prepare records every key's reply from a fresh server.
func (e *evalZipf) prepare() error {
	if err := e.setup(e.seed); err != nil {
		return err
	}
	s := server.New(server.Config{})
	defer s.Close()
	d := newDirect(s.Handler(), e.path())
	e.refs = make([][]byte, len(e.bodies))
	for k, b := range e.bodies {
		status, _, out := d.post(b)
		if status != http.StatusOK {
			return fmt.Errorf("eval_zipf: reference reply: status %d", status)
		}
		e.refs[k] = append([]byte(nil), out...)
	}
	return nil
}

func (e *evalZipf) probe(j int, dst []byte) []byte {
	return append(dst, e.bodies[j%len(e.bodies)]...)
}

func (e *evalZipf) next(_ int, dst []byte) ([]byte, int64) {
	i := e.pos.Add(1) - 1
	k := e.stream[i%int64(len(e.stream))]
	return append(dst, e.bodies[k]...), int64(k)
}

func (e *evalZipf) check(k int64, source string, body []byte) (string, float64, float64) {
	if !bytes.Equal(body, e.refs[k]) {
		return fmt.Sprintf("eval key %d (%s): body differs from its fresh-server reply", k, source), 0, 0
	}
	switch source {
	case "hit":
		return "", 0, 0
	case "miss":
		kn := e.kernels[k]
		return "", servingHost.CappedEnergy(kn), servingHost.CappedTime(kn)
	}
	return fmt.Sprintf("eval key %d: X-Cache %q", k, source), 0, 0
}

// verify reconciles the client's X-Cache tallies with the counters.
func (e *evalZipf) verify(srv *server.Server, t tally) []string {
	reg := srv.Metrics()
	return reconcile(map[string][2]int64{
		"requests_eval_total": {t.requests, int64(reg.Counter("requests_eval_total").Value())},
		"cache_hits_total":    {t.hits, int64(reg.Counter("cache_hits_total").Value())},
		"eval_computes_total": {t.misses, int64(reg.Counter("eval_computes_total").Value())},
	})
}

// reconcile lists every counter whose client tally differs.
func reconcile(pairs map[string][2]int64) []string {
	var out []string
	for name, p := range pairs {
		if p[0] != p[1] {
			out = append(out, fmt.Sprintf("%s: client counted %d, server %d", name, p[0], p[1]))
		}
	}
	return out
}

// evalBody renders a /v1/eval request the way cmd/loadgen does.
func evalBody(machineKey string, work, intensity float64) []byte {
	b := []byte(`{"machine":"` + machineKey + `","precision":"double","work":`)
	b = strconv.AppendFloat(b, work, 'g', -1, 64)
	b = append(b, `,"intensity":`...)
	b = strconv.AppendFloat(b, intensity, 'g', -1, 64)
	return append(b, '}')
}

// ---- evalbatch_miss ---------------------------------------------------

// evalBatchMiss posts /v1/evalbatch where every request is a distinct
// 64-point batch: a seeded template whose first intensity is unique to
// the request.
type evalBatchMiss struct {
	seed     int64
	prefix   [][]byte
	suffix   [][]byte
	params   []core.Params
	machines []string
	rest     [][]float64 // intensities 2..64 per template
	restJ    []float64   // capped energy of points 2..64
	restT    []float64
	pos      atomic.Int64
	// refHead and refTail are a template's fresh-server reply up to and
	// from the first result object, the only part that depends on the
	// request's unique point.
	refHead   [][]byte
	refTail   [][]byte
	mu        sync.Mutex
	sampled   map[int64][]byte
	sampleCap int
}

const (
	batchTemplates = 256
	batchPoints    = 64
)

var batchMachines = []string{"gtx580", "i7-950"}

func (b *evalBatchMiss) path() string { return "/v1/evalbatch" }
func (b *evalBatchMiss) warmup() int  { return 512 }

// prepare records each template's fresh-server reply around its first
// result object: the bytes that three probes with far-apart first
// points share, cut back to that object's braces.
func (b *evalBatchMiss) prepare() error {
	b.sampled = map[int64][]byte{}
	b.sampleCap = 48
	if err := b.setup(b.seed); err != nil {
		return err
	}
	s := server.New(server.Config{})
	defer s.Close()
	d := newDirect(s.Handler(), b.path())
	b.refHead, b.refTail = nil, nil
	for t := int64(0); t < batchTemplates; t++ {
		var replies [][]byte
		for _, slot := range []int64{t, t + batchTemplates<<19, t + batchTemplates<<21} {
			status, _, out := d.post(b.body(slot, nil))
			if status != http.StatusOK {
				return fmt.Errorf("evalbatch_miss: reference reply: status %d", status)
			}
			replies = append(replies, append([]byte(nil), out...))
		}
		ref := replies[0]
		head, tail := len(ref), len(ref)
		for _, r := range replies[1:] {
			n := 0
			for n < len(r) && n < len(ref) && r[n] == ref[n] {
				n++
			}
			head = min(head, n)
			n = 0
			for n < len(r) && n < len(ref) && r[len(r)-1-n] == ref[len(ref)-1-n] {
				n++
			}
			tail = min(tail, n)
		}
		start := bytes.LastIndexByte(ref[:head], '{')
		end := bytes.IndexByte(ref[len(ref)-tail:], '}')
		if start < 0 || end < 0 {
			return fmt.Errorf("evalbatch_miss: template %d: cannot find the first result object", t)
		}
		b.refHead = append(b.refHead, ref[:start])
		b.refTail = append(b.refTail, ref[len(ref)-tail+end+1:])
	}
	return nil
}

func (b *evalBatchMiss) setup(seed int64) error {
	b.seed = seed
	rng := rand.New(rand.NewSource(seed))
	cat := machine.Catalog()
	b.prefix, b.suffix, b.params, b.machines = nil, nil, nil, nil
	b.rest, b.restJ, b.restT = nil, nil, nil
	for t := 0; t < batchTemplates; t++ {
		m := batchMachines[t%len(batchMachines)]
		p := core.FromMachine(cat[m], machine.Double)
		rest := make([]float64, batchPoints-1)
		var j, s float64
		sfx := []byte{}
		for i := range rest {
			// Log-uniform over [1/4, 64] flops/byte, four significant digits.
			v, _ := strconv.ParseFloat(strconv.FormatFloat(math.Exp2(-2+8*rng.Float64()), 'g', 4, 64), 64)
			rest[i] = v
			k := core.KernelAt(1e9, v)
			j += p.CappedEnergy(k)
			s += p.CappedTime(k)
			sfx = append(sfx, ',')
			sfx = strconv.AppendFloat(sfx, v, 'g', -1, 64)
		}
		b.prefix = append(b.prefix, []byte(`{"machine":"`+m+`","precision":"double","intensities":[`))
		b.suffix = append(b.suffix, append(sfx, ']', '}'))
		b.params = append(b.params, p)
		b.machines = append(b.machines, m)
		b.rest = append(b.rest, rest)
		b.restJ = append(b.restJ, j)
		b.restT = append(b.restT, s)
	}
	b.pos.Store(0)
	return nil
}

// uniqueIntensity is request i's first intensity: distinct for every i.
func (b *evalBatchMiss) uniqueIntensity(i int64) float64 {
	return 1 + float64(i)/(1<<20)
}

func (b *evalBatchMiss) body(i int64, dst []byte) []byte {
	t := i % batchTemplates
	dst = append(dst, b.prefix[t]...)
	dst = strconv.AppendFloat(dst, b.uniqueIntensity(i), 'g', -1, 64)
	return append(dst, b.suffix[t]...)
}

// probe bodies use slots far beyond any the closed loop reaches.
func (b *evalBatchMiss) probe(j int, dst []byte) []byte { return b.body(1<<40+int64(j), dst) }

func (b *evalBatchMiss) next(_ int, dst []byte) ([]byte, int64) {
	i := b.pos.Add(1) - 1
	return b.body(i, dst), i
}

func (b *evalBatchMiss) check(i int64, source string, body []byte) (string, float64, float64) {
	if source != "miss" {
		return fmt.Sprintf("batch %d: X-Cache %q, want miss", i, source), 0, 0
	}
	t := i % batchTemplates
	if !bytes.HasPrefix(body, b.refHead[t]) || !bytes.HasSuffix(body, b.refTail[t]) ||
		len(body) < len(b.refHead[t])+len(b.refTail[t]) {
		return fmt.Sprintf("batch %d: reply differs from its template's fresh-server reply", i), 0, 0
	}
	if mix64(uint64(b.seed)^uint64(i))%64 == 0 {
		b.mu.Lock()
		if len(b.sampled) < b.sampleCap {
			b.sampled[i] = append([]byte(nil), body...)
		}
		b.mu.Unlock()
	}
	k := core.KernelAt(1e9, b.uniqueIntensity(i))
	p := b.params[t]
	return "", b.restJ[t] + p.CappedEnergy(k), b.restT[t] + p.CappedTime(k)
}

func (b *evalBatchMiss) verify(srv *server.Server, t tally) []string {
	reg := srv.Metrics()
	out := reconcile(map[string][2]int64{
		"requests_evalbatch_total": {t.requests, int64(reg.Counter("requests_evalbatch_total").Value())},
		"evalbatch_computes_total": {t.misses, int64(reg.Counter("evalbatch_computes_total").Value())},
		"cache_hits_total":         {t.hits, int64(reg.Counter("cache_hits_total").Value())},
	})
	if len(b.sampled) == 0 {
		out = append(out, "evalbatch: no reply was sampled for the fresh-server check")
	}
	for i, got := range b.sampled {
		want, err := freshBody(b.path(), b.body(i, nil))
		if err != nil {
			out = append(out, fmt.Sprintf("batch %d: %v", i, err))
		} else if !bytes.Equal(got, want) {
			out = append(out, fmt.Sprintf("batch %d: reply differs from a fresh server's", i))
		}
	}
	return out
}

// ---- campaign_mix -----------------------------------------------------

// campaignMix posts small /v1/campaign configs. Every connection walks
// the same Zipf(1.1) stream over a universe of configs larger than the
// cache, so one request per new config runs the engine while the
// others coalesce, and repeats hit or miss once evicted.
type campaignMix struct {
	seed    int64
	configs []campaign.Config
	bodies  [][]byte
	joules  []float64
	secs    []float64
	stream  []int32
	pos     []int64 // per client
	first   []atomic.Pointer[[]byte]
}

// campaignConfigs is four times the default cache's 256 entries, so
// about a fifth of requests miss or coalesce and the 90th-percentile
// latency falls among them rather than on the edge of the hits.
const (
	campaignConfigs = 1024
	campaignStream  = 1 << 14
)

func (m *campaignMix) path() string { return "/v1/campaign" }
func (m *campaignMix) warmup() int  { return 256 }
func (m *campaignMix) prepare() error {
	m.first = make([]atomic.Pointer[[]byte], campaignConfigs)
	return m.setup(m.seed)
}

func (m *campaignMix) setup(seed int64) error {
	m.seed = seed
	rng := rand.New(rand.NewSource(seed))
	cat := machine.Catalog()
	m.configs, m.bodies, m.joules, m.secs = nil, nil, nil, nil
	for i := 0; i < campaignConfigs; i++ {
		cfg := campaign.Config{
			Machines:    []string{batchMachines[rng.Intn(len(batchMachines))]},
			LoIntensity: 0.25,
			HiIntensity: 16,
			Points:      5 + rng.Intn(2),
			Reps:        5 + rng.Intn(2),
			VolumeBytes: 1 << 26,
			Seed:        rng.Int63n(1 << 30),
		}
		body, err := json.Marshal(cfg)
		if err != nil {
			return err
		}
		// A computed campaign reply is priced as its reps x points
		// kernel runs at the grid's geometric-mean intensity.
		p := core.FromMachine(cat[cfg.Machines[0]], machine.Double)
		gm := math.Sqrt(cfg.LoIntensity * cfg.HiIntensity)
		k := core.KernelAt(gm*cfg.VolumeBytes, gm)
		runs := float64(cfg.Points * cfg.Reps)
		m.configs = append(m.configs, cfg)
		m.bodies = append(m.bodies, body)
		m.joules = append(m.joules, runs*p.CappedEnergy(k))
		m.secs = append(m.secs, runs*p.CappedTime(k))
	}
	zipf := rand.NewZipf(rng, 1.1, 1, campaignConfigs-1)
	m.stream = make([]int32, campaignStream)
	for i := range m.stream {
		m.stream[i] = int32(zipf.Uint64())
	}
	m.pos = make([]int64, conns())
	return nil
}

func (m *campaignMix) probe(j int, dst []byte) []byte {
	return append(dst, m.bodies[(mix64(uint64(m.seed))+uint64(j)*97)%campaignConfigs]...)
}

// align starts every connection at the same stream position, the
// furthest any has reached, so that the connections walk the stream in
// step from the start of each window instead of drifting apart over a
// run.
func (m *campaignMix) align() {
	p := slices.Max(m.pos)
	for c := range m.pos {
		m.pos[c] = p
	}
}

func (m *campaignMix) next(c int, dst []byte) ([]byte, int64) {
	k := m.stream[m.pos[c]%campaignStream]
	m.pos[c]++
	return append(dst, m.bodies[k]...), int64(k)
}

func (m *campaignMix) check(k int64, source string, body []byte) (string, float64, float64) {
	switch source {
	case "hit", "miss", "coalesced":
	default:
		return fmt.Sprintf("campaign %d: X-Cache %q", k, source), 0, 0
	}
	if len(body) == 0 {
		return fmt.Sprintf("campaign %d: empty reply", k), 0, 0
	}
	if p := m.first[k].Load(); p != nil {
		if !bytes.Equal(*p, body) {
			return fmt.Sprintf("campaign %d (%s): reply differs from the first reply for the same config", k, source), 0, 0
		}
	} else {
		b := append([]byte(nil), body...)
		if !m.first[k].CompareAndSwap(nil, &b) && !bytes.Equal(*m.first[k].Load(), body) {
			return fmt.Sprintf("campaign %d (%s): reply differs from the first reply for the same config", k, source), 0, 0
		}
	}
	if source == "miss" {
		return "", m.joules[k], m.secs[k]
	}
	return "", 0, 0
}

func (m *campaignMix) verify(srv *server.Server, t tally) []string {
	reg := srv.Metrics()
	out := reconcile(map[string][2]int64{
		"requests_campaign_total": {t.requests, int64(reg.Counter("requests_campaign_total").Value())},
		"cache_hits_total":        {t.hits, int64(reg.Counter("cache_hits_total").Value())},
		"engine_runs_total":       {t.misses, int64(reg.Counter("engine_runs_total").Value())},
		"coalesced_total":         {t.coalesced, int64(reg.Counter("coalesced_total").Value())},
	})
	if sum := t.hits + t.misses + t.coalesced; sum != t.requests {
		out = append(out, fmt.Sprintf("campaign: hits+misses+coalesced = %d, requests = %d", sum, t.requests))
	}
	// A seeded sample of the configs seen, against a fresh server.
	checked := 0
	for j := 0; j < campaignConfigs && checked < 8; j++ {
		k := int(mix64(uint64(m.seed)+uint64(j)) % campaignConfigs)
		p := m.first[k].Load()
		if p == nil {
			continue
		}
		checked++
		want, err := freshBody(m.path(), m.bodies[k])
		if err != nil {
			out = append(out, fmt.Sprintf("campaign %d: %v", k, err))
		} else if !bytes.Equal(*p, want) {
			out = append(out, fmt.Sprintf("campaign %d: reply differs from a fresh server's", k))
		}
	}
	if checked == 0 {
		out = append(out, "campaign: no reply was sampled for the fresh-server check")
	}
	return out
}

// newService returns the named serving workload with its seed.
func newService(name string, seed int64) service {
	switch name {
	case "eval_zipf":
		return &evalZipf{seed: seed}
	case "evalbatch_miss":
		return &evalBatchMiss{seed: seed}
	case "campaign_mix":
		return &campaignMix{seed: seed}
	}
	return nil
}
