package cluster

import (
	"runtime"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

// cellRequests is the fixed trace length BenchmarkPolicyCell and
// TestEventLoopAllocs drive through one policy cell: the first 131,072
// requests of cluster_1m's workload.
const cellRequests = 1 << 17

// cellScenario returns cluster_1m cut to cellRequests, with its trace.
func cellScenario(tb testing.TB) (*Scenario, *workload.Trace) {
	tb.Helper()
	sc := Scenarios()["cluster_1m"]
	sc.Workload.Requests = cellRequests
	tr, err := workload.Generate(sc.Workload)
	if err != nil {
		tb.Fatal(err)
	}
	return &sc, tr
}

// runCell drives tr through a fresh fleet under the named policy,
// seeded as RunScenario seeds it.
func runCell(tb testing.TB, sc *Scenario, tr *workload.Trace, name string) PolicyReport {
	p, err := NewPolicy(name, len(sc.Replicas), stats.DeriveSeed(sc.Workload.Seed, labelPolicy, stats.HashLabel(name)))
	if err != nil {
		tb.Fatal(err)
	}
	pr, err := runPolicy(sc, tr, p, Options{}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return pr
}

// BenchmarkPolicyCell times one policy cell over the fixed
// cellRequests trace and reports heap allocations per simulated
// request alongside the per-cell figures:
//
//	go test ./internal/cluster -run '^$' -bench BenchmarkPolicyCell -benchmem
func BenchmarkPolicyCell(b *testing.B) {
	sc, tr := cellScenario(b)
	for _, name := range PolicyNames() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				runCell(b, sc, tr, name)
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*cellRequests), "allocs/req")
		})
	}
}

// TestEventLoopAllocs pins the heap allocations one policy cell makes
// per simulated request over the cellRequests trace, at the measured
// value plus a margin of 0.05. What remains is the result cache's
// entry and list element per engine run and the in-flight record per
// miss; event scheduling and routing allocate nothing in steady state.
func TestEventLoopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	var h eventHeap
	for i := 0; i < 64; i++ {
		h.push(simEvent{time: float64(i % 7), seq: uint64(i)})
	}
	if allocs := testing.AllocsPerRun(100, func() { h.push(h.pop()) }); allocs != 0 {
		t.Errorf("event push+pop allocates %.1f objects, want 0", allocs)
	}

	ceiling := map[string]float64{
		RoundRobin:    0.77 + 0.05,
		LeastLoaded:   0.72 + 0.05,
		CacheAffinity: 0.40 + 0.05,
		EnergyAware:   0.42 + 0.05,
	}
	sc, tr := cellScenario(t)
	for _, name := range PolicyNames() {
		perReq := testing.AllocsPerRun(1, func() { runCell(t, sc, tr, name) }) / cellRequests
		t.Logf("%s: %.4f allocs/request", name, perReq)
		if perReq > ceiling[name] {
			t.Errorf("%s allocates %.4f objects per request, want <= %.2f", name, perReq, ceiling[name])
		}
	}
}
