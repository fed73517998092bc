// Enforces the incremental evaluation engine's acceptance bar outside
// benchmark runs: on the Figure-3 workload class at paper scale, an SE
// allocation sweep must evaluate at least 2× fewer genes with the delta
// engine than with full evaluation — at byte-identical search results.
// BenchmarkSEAllocationDeltaVsFull reports the same quantities as
// metrics; this test fails the build if the saving regresses.
package repro_test

import (
	"testing"

	"repro/internal/scheduler"
)

func TestDeltaEngineHalvesGenesPerAllocationSweep(t *testing.T) {
	w := benchWorkload(100, 20)
	budget := scheduler.Budget{MaxIterations: 20}
	delta := benchSchedule(t, w, "se", budget, scheduler.WithSeed(1), scheduler.WithY(9))
	fullRes := benchSchedule(t, w, "se", budget, scheduler.WithSeed(1), scheduler.WithY(9), scheduler.WithFullEval())

	if delta.Makespan != fullRes.Makespan {
		t.Fatalf("delta best makespan %v != full %v", delta.Makespan, fullRes.Makespan)
	}
	for i := range delta.Best {
		if delta.Best[i] != fullRes.Best[i] {
			t.Fatalf("best strings differ at gene %d: %v vs %v", i, delta.Best[i], fullRes.Best[i])
		}
	}
	if fullRes.GenesEvaluated < 2*delta.GenesEvaluated {
		t.Errorf("genes per sweep: full %d < 2× delta %d — the incremental engine no longer halves the evaluation effort",
			fullRes.GenesEvaluated, delta.GenesEvaluated)
	}
	if delta.DeltaEvaluations == 0 {
		t.Error("delta run reported no suffix replays")
	}
	t.Logf("genes evaluated: full %d, delta %d (%.1f× fewer); full evals %d→%d, suffix replays %d",
		fullRes.GenesEvaluated, delta.GenesEvaluated,
		float64(fullRes.GenesEvaluated)/float64(delta.GenesEvaluated),
		fullRes.Evaluations, delta.Evaluations, delta.DeltaEvaluations)
}
