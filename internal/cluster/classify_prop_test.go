package cluster

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// estimate is the scalar oracle for Fleet.estimateInto: it prices
// replica i alone, with its own content key and EnergyModel, which the
// class-priced columns must reproduce bit for bit.
func (f *Fleet) estimate(now float64, i int, req workload.Request) (t, e float64) {
	rep := f.reps[i]
	if rep.cache.Peek(rep.key(req)) {
		return f.hitLatency, rep.params.Pi0 * f.hitLatency
	}
	k := core.KernelAt(req.Work, req.Intensity)
	return rep.pendingWork(now) + rep.model.CappedTime(k), rep.model.CappedEnergy(k)
}

// mixedPropScenario is propScenario over a fleet of 2–8 replicas drawn
// from a pool that spans machines, precisions (including the empty
// default), models and operating points, with random cache bounds and
// occasional TTLs, so most fleets hold several price classes and some
// classes hold several replicas.
func mixedPropScenario(trial int, policies []string) Scenario {
	pool := []ReplicaSpec{
		{Machine: "i7-950", Precision: "double"},
		{Machine: "i7-950"},
		{Machine: "i7-950", Precision: "single"},
		{Machine: "i7-950", Precision: "double", OperatingPoint: "0.55x"},
		{Machine: "gtx580", Precision: "double"},
		{Machine: "gtx580", Model: "analytic"},
		{Machine: "gtx580", Model: "blackbox"},
		{Machine: "gtx580", Precision: "single"},
		{Machine: "gtx580", Precision: "double", OperatingPoint: "0.70x"},
		{Machine: "gtx580-4sm", Precision: "double", OperatingPoint: "0.55x"},
		{Machine: "fermi", Precision: "single", Model: "blackbox"},
	}
	sc := propScenario(trial, policies)
	r := stats.DeriveRand(int64(trial), stats.HashLabel("mixed-fleet-prop"))
	sc.Replicas = make([]ReplicaSpec, 2+r.Intn(7))
	for i := range sc.Replicas {
		spec := pool[r.Intn(len(pool))]
		spec.CacheEntries = 64 + r.Intn(512)
		spec.CacheBytes = 64 << 20
		if r.Intn(4) == 0 {
			spec.CacheTTLSeconds = 5 + 20*r.Float64()
		}
		sc.Replicas[i] = spec
	}
	return sc
}

// TestEnergyAwareBatchClassifierProperty audits every routing decision
// the energy-aware policy makes across 300 randomized trials against
// two independent re-derivations, on i7-950 fleets in even trials and
// mixed fleets (mixedPropScenario) in odd ones:
//
//  1. a scalar reference scan with the eq. 10 classification written
//     out inline (the pre-batch router, re-implemented here so the
//     production path and the reference share no classifier code), and
//  2. the same scan driven by core.ClassifyRatiosInto over the
//     collected (speedup, greenup) ratio columns — the batched
//     classifier the production router is built on.
//
// All three must pick the same replica for every request, and the
// batched outcome column must equal the inline scalar outcomes
// element-wise. This pins the cluster router against any drift in the
// batch classifier (and vice versa).
//
// The audit also checks the columns the router classified: each
// estimateInto entry, priced once per price class, must be
// bit-identical to the scalar per-replica oracle (Fleet.estimate).
func TestEnergyAwareBatchClassifierProperty(t *testing.T) {
	for trial := 0; trial < propTrials; trial++ {
		sc := propScenario(trial, []string{EnergyAware})
		if trial%2 == 1 {
			sc = mixedPropScenario(trial, []string{EnergyAware})
		}
		decisions := 0
		var ts, es, sp, gr []float64
		var inlineOuts, batchOuts []core.TradeoffOutcome
		opts := Options{
			Workers: 1,
			routeObserver: func(now float64, req workload.Request, chosen int, f *Fleet) {
				decisions++
				n := f.NumReplicas()
				if cap(ts) < n {
					ts, es = make([]float64, n), make([]float64, n)
				}
				ts, es = ts[:n], es[:n]
				for i := 0; i < n; i++ {
					ts[i], es[i] = f.estimate(now, i, req)
					if math.Float64bits(ts[i]) != math.Float64bits(f.estT[i]) ||
						math.Float64bits(es[i]) != math.Float64bits(f.estE[i]) {
						t.Fatalf("trial %d decision %d replica %d (%+v): class-priced (t=%v, e=%v) != scalar (t=%v, e=%v)",
							trial, decisions, i, f.reps[i].spec, f.estT[i], f.estE[i], ts[i], es[i])
					}
				}

				// Scalar reference scan, classifier inlined.
				best := 0
				bestT, bestE := ts[0], es[0]
				sp, gr = sp[:0], gr[:0]
				inlineOuts = inlineOuts[:0]
				for i := 1; i < n; i++ {
					speedup, greenup := bestT/ts[i], bestE/es[i]
					sp = append(sp, speedup)
					gr = append(gr, greenup)
					var out core.TradeoffOutcome
					switch {
					case speedup > 1 && greenup > 1:
						out = core.Both
					case speedup > 1:
						out = core.SpeedupOnly
					case greenup > 1:
						out = core.GreenupOnly
					default:
						out = core.Neither
					}
					inlineOuts = append(inlineOuts, out)
					switch out {
					case core.Both:
						best, bestT, bestE = i, ts[i], es[i]
					case core.GreenupOnly:
						if ts[i] <= 2*bestT {
							best, bestT, bestE = i, ts[i], es[i]
						}
					case core.SpeedupOnly:
						if greenup >= 0.95 {
							best, bestT, bestE = i, ts[i], es[i]
						}
					}
				}
				if best != chosen {
					t.Fatalf("trial %d decision %d: policy chose %d, scalar reference chose %d",
						trial, decisions, chosen, best)
				}

				// Batched classification of the same ratio columns must
				// reproduce the inline outcomes and the same final choice.
				if cap(batchOuts) < len(sp) {
					batchOuts = make([]core.TradeoffOutcome, len(sp))
				}
				batchOuts = batchOuts[:len(sp)]
				core.ClassifyRatiosInto(batchOuts, sp, gr)
				for j := range batchOuts {
					if batchOuts[j] != inlineOuts[j] {
						t.Fatalf("trial %d decision %d challenger %d: batch outcome %v != inline %v (speedup=%g greenup=%g)",
							trial, decisions, j+1, batchOuts[j], inlineOuts[j], sp[j], gr[j])
					}
				}
				bBest := 0
				bT, bE := ts[0], es[0]
				for i := 1; i < n; i++ {
					speedup, greenup := bT/ts[i], bE/es[i]
					switch core.ClassifyRatios(speedup, greenup) {
					case core.Both:
						bBest, bT, bE = i, ts[i], es[i]
					case core.GreenupOnly:
						if ts[i] <= 2*bT {
							bBest, bT, bE = i, ts[i], es[i]
						}
					case core.SpeedupOnly:
						if greenup >= 0.95 {
							bBest, bT, bE = i, ts[i], es[i]
						}
					}
				}
				if bBest != chosen {
					t.Fatalf("trial %d decision %d: policy chose %d, batched-classifier scan chose %d",
						trial, decisions, chosen, bBest)
				}
			},
		}
		if _, err := RunScenario(context.Background(), sc, opts); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if decisions != sc.Workload.Requests {
			t.Fatalf("trial %d: observed %d decisions for %d requests", trial, decisions, sc.Workload.Requests)
		}
	}
}
