package cluster

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden fleet reports:
//
//	go test ./internal/cluster/ -run 'TestFleetReportGolden|TestHeteroFleetReportGolden' -update
var update = flag.Bool("update", false, "rewrite golden files")

// goldenPath is the pinned fleet report for the smoke scenario.
const goldenPath = "testdata/fleet_golden.json"

// heteroGoldenPath is the pinned fleet report for heteroSmokeScenario.
const heteroGoldenPath = "testdata/fleet_hetero_golden.json"

// TestFleetReportGolden is the determinism harness's anchor: the smoke
// scenario's full report must be byte-identical at every worker count
// AND across commits — any change to the workload generators, the
// event loop, the policies, the cache, the roofline pricing, or the
// report encoding shows up as a golden diff that has to be reviewed
// and re-pinned deliberately.
func TestFleetReportGolden(t *testing.T) {
	sc, ok := Scenarios()["smoke"]
	if !ok {
		t.Fatal("catalog lost the smoke scenario")
	}
	checkGolden(t, sc, goldenPath)
}

// TestHeteroFleetReportGolden pins a fleet with several price classes:
// the hetero_dvfs replicas (base-clock and DVFS-pinned machines) plus a
// blackbox-priced gtx580 that shares its content key with the analytic
// ones, and an i7-950 with an empty precision and a TTL cache. Smoke
// is a single-class fleet, so only this golden catches a router that
// prices one class with another's model or operating point.
func TestHeteroFleetReportGolden(t *testing.T) {
	checkGolden(t, heteroSmokeScenario(t), heteroGoldenPath)
}

// heteroSmokeScenario is hetero_dvfs's fleet, widened by two replicas,
// under the smoke workload.
func heteroSmokeScenario(t *testing.T) Scenario {
	t.Helper()
	cat := Scenarios()
	sc, ok := cat["hetero_dvfs"]
	if !ok {
		t.Fatal("catalog lost the hetero_dvfs scenario")
	}
	sc.Name = "hetero_smoke"
	sc.Desc = "hetero_dvfs replicas plus a blackbox gtx580 and a TTL-cached i7-950, smoke workload"
	sc.Replicas = append(append([]ReplicaSpec(nil), sc.Replicas...),
		ReplicaSpec{Machine: "gtx580", Model: "blackbox", CacheEntries: 4096, CacheBytes: 64 << 20},
		ReplicaSpec{Machine: "i7-950", CacheEntries: 1024, CacheBytes: 64 << 20, CacheTTLSeconds: 30},
	)
	sc.Workload = cat["smoke"].Workload
	return sc
}

// checkGolden runs sc at workers 1, 4 and 16, requires byte-identical
// reports, and compares them with the golden file at path (or rewrites
// it under -update).
func checkGolden(t *testing.T, sc Scenario, path string) {
	t.Helper()
	var reports [][]byte
	for _, workers := range []int{1, 4, 16} {
		rep, err := RunScenario(context.Background(), sc, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		data, err := rep.Marshal()
		if err != nil {
			t.Fatalf("workers=%d: Marshal: %v", workers, err)
		}
		reports = append(reports, data)
	}
	for i, data := range reports[1:] {
		if !bytes.Equal(reports[0], data) {
			t.Fatalf("report at workers=%d differs from workers=1", []int{4, 16}[i])
		}
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, reports[0], 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(reports[0]))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(want, reports[0]) {
		t.Fatalf("fleet report drifted from %s\nrun `go test ./internal/cluster/ -run %s -update` after reviewing the change\ngot %d bytes, want %d", path, t.Name(), len(reports[0]), len(want))
	}
}
