package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		beyond int
	}{
		{n: 1, pct: 50, beyond: 0}, // too few samples: the median
		{n: 20, pct: 50, beyond: 10},
		{n: 99, pct: 50, beyond: 49},
		{n: 100, pct: 90, beyond: 10},
		{n: 999, pct: 90, beyond: 99},
		{n: 1000, pct: 99, beyond: 10},
		{n: 9999, pct: 99, beyond: 99},
		{n: 10_000, pct: 99.9, beyond: 10},
		{n: 100_000, pct: 99.99, beyond: 10},
	} {
		sorted := make([]time.Duration, tc.n)
		for i := range sorted {
			sorted[i] = time.Duration(i+1) * time.Millisecond
		}
		pct, v, beyond := tail(sorted)
		if pct != tc.pct || beyond != tc.beyond {
			t.Errorf("n=%d: tail = p%v with %d beyond, want p%v with %d", tc.n, pct, beyond, tc.pct, tc.beyond)
		}
		if want := sorted[tc.n-1-beyond]; v != want {
			t.Errorf("n=%d: tail value %v, want %v", tc.n, v, want)
		}
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: [10,50) counts once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the root's end
		{Name: "a.1", Start: 12, End: 15, Parent: 1},
		{Name: "other", Start: 0, End: 7, Parent: -1},
	}
	got := selfTimes(spans)
	want := []time.Duration{50, 17, 30, 30, 3, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRequestIDRoundTrips(t *testing.T) {
	kind, op, parent := parseRequestID(requestID("step", 1<<40|7, 12))
	if kind != "step" || op != 1<<40|7 || parent != 12 {
		t.Fatalf("parseRequestID = %q %d %d", kind, op, parent)
	}
	if kind, op, parent := parseRequestID("proc-17"); kind != "other" || op != -1 || parent != -1 {
		t.Fatalf("foreign ID parsed as %q %d %d", kind, op, parent)
	}
}

func TestGoldenLoadsAndRejectsCorruption(t *testing.T) {
	g, err := parseGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGolden(g, g.Seed, g.Churn, g.Churn); err != nil {
		t.Fatalf("golden does not match itself: %v", err)
	}
	bad := append([]goldenEntry(nil), g.Churn...)
	bad[3].Makespan++
	if checkGolden(g, g.Seed, g.Churn, bad) == nil {
		t.Fatal("corrupted makespan passed the golden check")
	}
	if checkGolden(g, g.Seed+1, g.Churn, bad) != nil {
		t.Fatal("a seed without a golden was checked against it")
	}
	if _, err := parseGolden(goldenJSON[:len(goldenJSON)/2]); err == nil {
		t.Fatal("truncated golden parsed")
	}
}

// TestCorruptedGoldenFailsRun runs the churn workload for one cycle on the
// default seed against a golden with one digest changed: the run must
// report itself incorrect and count the mismatch as a failed operation.
func TestCorruptedGoldenFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full churn cycle")
	}
	g, err := parseGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	g.Churn[0].Solution = g.Churn[1].Solution
	corrupt, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{workload: "churn", seed: g.Seed, seconds: time.Second, golden: corrupt, dir: t.TempDir()}
	res, _, err := measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted golden: correct=%v failed=%d, want an incorrect run with a failure", res.Correct, res.Failed)
	}
	if res.Attempted != churnTraces*churnEvents {
		t.Fatalf("attempted %d operations, want one cycle of %d", res.Attempted, churnTraces*churnEvents)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the runs are
// judged by, in step with the metrics this program prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := spec.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end_to_end[%d] = %s %s, program prints %s %s", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if got := spec.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, program prints %s %s %s", i, got, m.name, m.unit, m.better)
		}
	}
}
