package shard

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/workload"
)

func shardWorkload(tasks int, seed int64) *workload.Workload {
	return workload.MustGenerate(workload.Params{
		Tasks: tasks, Machines: 6, Connectivity: 2.5, Heterogeneity: 8, CCR: 0.5, Seed: seed,
	})
}

// run steps a fresh sharded engine n rounds and returns its merged,
// reconciled result: Drive's loop at engine level.
func run(t *testing.T, w *workload.Workload, opts Options, n int) *Result {
	t.Helper()
	e, err := NewEngine(w.Graph, w.System, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for i := 0; i < n; i++ {
		e.Step()
	}
	return e.Result()
}

// runSE steps a fresh serial SE engine n generations and returns its
// result.
func runSE(t *testing.T, w *workload.Workload, opts core.Options, n int) *core.Result {
	t.Helper()
	e, err := core.NewEngine(w.Graph, w.System, opts)
	if err != nil {
		t.Fatalf("core.NewEngine: %v", err)
	}
	for i := 0; i < n; i++ {
		e.Step()
	}
	return e.Result()
}

// TestSingleShardBitIdenticalToSerialSE is the differential guard of the
// degenerate case: with one region the sharded runner must return exactly
// what serial SE returns — same best string, makespan, iterations and
// evaluation ledger.
func TestSingleShardBitIdenticalToSerialSE(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		w := shardWorkload(40, seed)
		direct := runSE(t, w, core.Options{Bias: -0.1, Y: 3, Seed: seed}, 40)
		sharded := run(t, w, Options{Shards: 1, Bias: -0.1, Y: 3, Seed: seed}, 40)
		if sharded.Regions != 1 {
			t.Fatalf("Regions = %d, want 1", sharded.Regions)
		}
		if sharded.BestMakespan != direct.BestMakespan {
			t.Errorf("seed %d: makespan %v != serial %v", seed, sharded.BestMakespan, direct.BestMakespan)
		}
		for i := range direct.Best {
			if sharded.Best[i] != direct.Best[i] {
				t.Fatalf("seed %d: best strings differ at gene %d", seed, i)
			}
		}
		if sharded.Iterations != direct.Iterations ||
			sharded.Evaluations != direct.Evaluations ||
			sharded.DeltaEvaluations != direct.DeltaEvaluations ||
			sharded.GenesEvaluated != direct.GenesEvaluated {
			t.Errorf("seed %d: ledger differs from serial SE", seed)
		}
	}
}

func TestShardedRunValidAndDeterministic(t *testing.T) {
	w := shardWorkload(60, 11)
	opts := Options{Shards: 4, Y: 3, Seed: 11}
	a, b := run(t, w, opts, 25), run(t, w, opts, 25)
	if a.Regions < 2 {
		t.Fatalf("Regions = %d, want a real multi-region run", a.Regions)
	}
	if err := schedule.Validate(a.Best, w.Graph, w.System); err != nil {
		t.Fatalf("sharded best is invalid: %v", err)
	}
	if got := schedule.NewEvaluator(w.Graph, w.System).Makespan(a.Best); got != a.BestMakespan {
		t.Errorf("BestMakespan = %v but re-evaluating gives %v", a.BestMakespan, got)
	}
	if lb := schedule.LowerBound(w.Graph, w.System); a.BestMakespan < lb {
		t.Errorf("makespan %v below lower bound %v", a.BestMakespan, lb)
	}
	if a.BestMakespan != b.BestMakespan || a.Evaluations != b.Evaluations || a.GenesEvaluated != b.GenesEvaluated {
		t.Errorf("same seed, different outcomes: %v/%d/%d vs %v/%d/%d",
			a.BestMakespan, a.Evaluations, a.GenesEvaluated, b.BestMakespan, b.Evaluations, b.GenesEvaluated)
	}
	for i := range a.Best {
		if a.Best[i] != b.Best[i] {
			t.Fatalf("same seed, best strings differ at gene %d", i)
		}
	}
}

func TestShardedDeltaVsFullIdentical(t *testing.T) {
	// The incremental engine must be invisible in sharded results too:
	// regions and the reconciliation pass both have full-evaluation twins.
	w := shardWorkload(50, 13)
	opts := Options{Shards: 3, Y: 3, Seed: 5}
	delta := run(t, w, opts, 20)
	opts.FullEval = true
	full := run(t, w, opts, 20)
	if delta.BestMakespan != full.BestMakespan {
		t.Errorf("delta makespan %v != full %v", delta.BestMakespan, full.BestMakespan)
	}
	for i := range delta.Best {
		if delta.Best[i] != full.Best[i] {
			t.Fatalf("delta and full best strings differ at gene %d", i)
		}
	}
	if full.DeltaEvaluations != 0 {
		t.Errorf("full run reported %d delta evaluations, want 0", full.DeltaEvaluations)
	}
	if delta.DeltaEvaluations == 0 {
		t.Error("delta run reported no delta evaluations")
	}
	if delta.GenesEvaluated >= full.GenesEvaluated {
		t.Errorf("delta run evaluated %d genes, full %d — no saving", delta.GenesEvaluated, full.GenesEvaluated)
	}
}

// TestReconciliationNeverViolatesPrecedence is the reconciliation
// invariant as a property test: across random workloads, shard counts and
// seeds, the merged-and-reconciled schedule must always be a valid
// solution.
func TestReconciliationNeverViolatesPrecedence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		w := workload.MustGenerate(workload.Params{
			Tasks:         20 + rng.Intn(60),
			Machines:      2 + rng.Intn(6),
			Connectivity:  1 + 3*rng.Float64(),
			Heterogeneity: 1 + 10*rng.Float64(),
			CCR:           rng.Float64(),
			Seed:          rng.Int63(),
		})
		res := run(t, w, Options{
			Shards:          2 + rng.Intn(5),
			Y:               1 + rng.Intn(3),
			ReconcileSweeps: rng.Intn(3) - 1, // exercise none, default and 1
			Seed:            rng.Int63(),
		}, 5+rng.Intn(10))
		if err := schedule.Validate(res.Best, w.Graph, w.System); err != nil {
			t.Fatalf("trial %d: reconciled schedule violates precedence: %v", trial, err)
		}
	}
}

func TestScheduleRepairIdentityOnValidStrings(t *testing.T) {
	w := shardWorkload(40, 17)
	res := runSE(t, w, core.Options{Seed: 1}, 5)
	repaired := schedule.Repair(w.Graph, res.Best)
	for i := range res.Best {
		if repaired[i] != res.Best[i] {
			t.Fatalf("repair changed a valid string at gene %d", i)
		}
	}
}

func TestScheduleRepairFixesInvalidStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := shardWorkload(40, 17)
	res := runSE(t, w, core.Options{Seed: 1}, 5)
	for trial := 0; trial < 50; trial++ {
		// Shuffle segments of a valid string into an (almost surely)
		// invalid order; repair must restore validity while preserving
		// machines and the task multiset.
		broken := res.Best.Clone()
		rng.Shuffle(len(broken), func(i, j int) { broken[i], broken[j] = broken[j], broken[i] })
		repaired := schedule.Repair(w.Graph, broken)
		if err := schedule.Validate(repaired, w.Graph, w.System); err != nil {
			t.Fatalf("trial %d: repaired string invalid: %v", trial, err)
		}
		machines := res.Best.Assignment()
		for _, gene := range repaired {
			if machines[gene.Task] != gene.Machine {
				t.Fatalf("trial %d: repair changed task %d's machine", trial, gene.Task)
			}
		}
	}
}
