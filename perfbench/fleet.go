package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fleetDigests holds the SHA-256 of each policy's Report.Marshal() on
// cluster_1m, recorded for the default and the held-out seed. On any
// other seed, every pass of a run must reproduce the first pass's
// digests.
var fleetDigests = map[int64]map[string]string{
	defaultSeed: {
		"round_robin":    "e692cedd673b5b031dd2369ccfb339cf51cf071aac3b62268c82f0cb258a3dfc",
		"least_loaded":   "eb7311f3d149a125e9ea17519322248cf1ddd6f31ea4327a00d4e7c94c06e21b",
		"cache_affinity": "c47ebaba1f47f2069de9aad6062715c7577baeb9f30b2e1ee754a58fb15fe683",
		"energy_aware":   "7df40f919da5a862b70fdd8867f05ab19df0b13496c79313a57de8d492fd2324",
	},
	heldOutSeed: {
		"round_robin":    "9a85468fade0f1cc28414224fe4761c1068cf910f675e98136d2d1b12fe1df60",
		"least_loaded":   "ad3e5b406fa1d96c1e7c2e6202a03f16feeae5f9970ab5a543536b4e10d0b31b",
		"cache_affinity": "962f081f99aa04d492a1851e36dc7e920028238708b2e05b28c473fda9d1eefc",
		"energy_aware":   "0f728eb7adb0c903c9d15cf354b73482a9ef02628522f3e174e9617c9a6e0e5a",
	},
}

// fleetCell is one timed cluster.RunScenario call for one policy.
type fleetCell struct {
	policy string
	raw    time.Duration
	scale  float64
	allocs uint64
	allocB uint64
	gcs    uint64
	report cluster.PolicyReport
}

// norm is the cell's normalized host time in seconds.
func (c fleetCell) norm() float64 { return c.raw.Seconds() * c.scale }

// fleetRun holds one fleet_1m run: the generated trace and its checks.
type fleetRun struct {
	sc       cluster.Scenario
	trace    *workload.Trace
	cal      *calibrator
	seed     int64
	setups   []float64
	setupRaw []float64
	digests  map[string]string
	cells    int64
	failed   int64
	problems []string
	tracer   *trace.Tracer
	// corrupt, when set, alters a marshaled report before it is hashed:
	// the fault-injection self-test's hook.
	corrupt func([]byte)
}

// fleetScenario is cluster_1m with its workload seed set by the run.
func fleetScenario(seed int64, requests int) cluster.Scenario {
	sc := cluster.Scenarios()["cluster_1m"]
	sc.Workload.Seed = seed
	if requests > 0 {
		sc.Workload.Requests = requests
	}
	return sc
}

// newFleetRun generates the trace repeats times, each between two
// calibrations; setup_s is the median of those.
func newFleetRun(seed int64, requests, repeats int, cal *calibrator, tracer *trace.Tracer) (*fleetRun, error) {
	f := &fleetRun{sc: fleetScenario(seed, requests), cal: cal, seed: seed, tracer: tracer}
	if err := f.sc.Validate(); err != nil {
		return nil, err
	}
	if want, ok := fleetDigests[seed]; ok && requests == 0 {
		f.digests = want
	}
	for i := 0; i < repeats; i++ {
		f.trace = nil
		runtime.GC()
		var err error
		raw, scale := cal.slice(func() {
			spanned(tracer, "workload.Generate", func() { f.trace, err = workload.Generate(f.sc.Workload) })
		})
		if err != nil {
			return nil, err
		}
		f.setups = append(f.setups, raw.Seconds()*scale)
		f.setupRaw = append(f.setupRaw, raw.Seconds())
	}
	return f, nil
}

// cell runs one policy over the trace between two calibrations and
// checks its report digest.
func (f *fleetRun) cell(policy string, heap *heapSampler) (fleetCell, error) {
	sc := f.sc
	sc.Policies = []string{policy}
	runtime.GC()
	var rep *cluster.Report
	var err error
	var o0, b0, g0, o1, b1, g1 uint64
	raw, scale := f.cal.slice(func() {
		if heap != nil {
			heap.start()
		}
		o0, b0, g0 = allocStats()
		_, sp := f.tracer.StartRoot(context.Background(), "cluster.RunScenario")
		sp.Tag("policy", policy)
		rep, err = cluster.RunScenario(context.Background(), sc, cluster.Options{Workers: 1, Trace: f.trace})
		sp.End()
		o1, b1, g1 = allocStats()
		if heap != nil {
			heap.end()
		}
	})
	if err != nil {
		return fleetCell{}, fmt.Errorf("fleet %s: %w", policy, err)
	}
	c := fleetCell{policy: policy, raw: raw, scale: scale, allocs: o1 - o0, allocB: b1 - b0, gcs: g1 - g0, report: rep.Policies[0]}
	f.cells++
	if problem := f.check(policy, rep); problem != "" {
		f.failed++
		if len(f.problems) < 10 {
			f.problems = append(f.problems, problem)
		}
	}
	return c, nil
}

// check hashes the report and compares the digest with the recorded
// one, or with the run's first pass on an unrecorded seed.
func (f *fleetRun) check(policy string, rep *cluster.Report) string {
	data, err := rep.Marshal()
	if err != nil {
		return fmt.Sprintf("fleet %s: marshal: %v", policy, err)
	}
	if f.corrupt != nil {
		f.corrupt(data)
	}
	if len(rep.Policies) != 1 || rep.Policies[0].Policy != policy || rep.Requests != len(f.trace.Requests) ||
		rep.Policies[0].Requests != len(f.trace.Requests) {
		return fmt.Sprintf("fleet %s: report does not cover the trace under that policy", policy)
	}
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	if f.digests == nil {
		f.digests = map[string]string{}
	}
	want, ok := f.digests[policy]
	if !ok || want == "" {
		f.digests[policy] = got
		return ""
	}
	if got != want {
		return fmt.Sprintf("fleet %s seed %d: report digest %s, want %s", policy, f.seed, got[:16], want[:16])
	}
	return ""
}

// pass runs the four policies once.
func (f *fleetRun) pass(heap *heapSampler) ([]fleetCell, error) {
	var cells []fleetCell
	for _, p := range cluster.PolicyNames() {
		c, err := f.cell(p, heap)
		if err != nil {
			return nil, err
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// passStats condenses one pass: simulated requests per normalized host
// second, and the slowest cell.
func passStats(cells []fleetCell, requests int, normalized bool) (rps, slowest float64) {
	var total float64
	for _, c := range cells {
		s := c.raw.Seconds()
		if normalized {
			s = c.norm()
		}
		total += s
		slowest = max(slowest, s)
	}
	return float64(len(cells)*requests) / total, slowest
}

// runFleet is the untraced fleet_1m measurement.
func runFleet(seed int64, seconds float64, cal *calibrator) (*outcome, error) {
	f, err := newFleetRun(seed, 0, 3, cal, nil)
	if err != nil {
		return nil, err
	}
	heap := &heapSampler{}
	var passes [][]fleetCell
	start := time.Now()
	for len(passes) < 2 || time.Since(start).Seconds() < seconds {
		cells, err := f.pass(heap)
		if err != nil {
			return nil, err
		}
		passes = append(passes, cells)
	}
	n := len(f.trace.Requests)
	out := &outcome{
		attempted: f.cells,
		failed:    f.failed,
		problems:  f.problems,
		e2e:       map[string]float64{},
		raw:       map[string]float64{},
		detail:    map[string]any{"passes": len(passes), "requests_per_cell": n, "digests": f.digests},
	}
	for _, norm := range []bool{true, false} {
		m := out.e2e
		if !norm {
			m = out.raw
		}
		var rps, mid, slow []float64
		for _, cells := range passes {
			r, s := passStats(cells, n, norm)
			rps = append(rps, r)
			slow = append(slow, s*1e6)
			cellUs := make([]float64, len(cells))
			for i, c := range cells {
				cellUs[i] = c.raw.Seconds() * 1e6
				if norm {
					cellUs[i] = c.norm() * 1e6
				}
			}
			mid = append(mid, median(cellUs))
		}
		m["rps"] = median(rps)
		m["p50_us"] = median(mid)
		m["p90_us"] = median(slow)
		if norm {
			m["setup_s"] = median(f.setups)
		} else {
			m["setup_s"] = median(f.setupRaw)
		}
	}
	var cellRaw [][2]float64
	for _, cells := range passes {
		for _, c := range cells {
			cellRaw = append(cellRaw, [2]float64{c.raw.Seconds(), c.scale})
		}
	}
	out.detail["cells"] = cellRaw
	var jpr float64
	for _, c := range passes[0] {
		jpr += c.report.EnergyPerRequest
	}
	out.e2e["j_per_req"] = jpr / float64(len(passes[0]))
	out.raw["j_per_req"] = out.e2e["j_per_req"]
	out.e2e["ok_ratio"] = okRatio(f.cells, f.failed)
	out.e2e["peak_heap_mb"] = heap.peakMB()
	return out, nil
}
