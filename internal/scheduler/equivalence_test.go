package scheduler_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/heuristics"
	"repro/internal/sa"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/shard"
	"repro/internal/tabu"
	"repro/internal/workload"
)

// The equivalence guard: for a fixed seed and workload, every wrapped
// algorithm must return the byte-identical best string, makespan,
// iteration count and evaluation count its package-level engine (or
// constructor) returns when stepped directly with the same configuration.
// The registry is plumbing, not a fork of the algorithms.

func equivalenceWorkload() *workload.Workload {
	return workload.MustGenerate(workload.Params{
		Tasks: 30, Machines: 6, Connectivity: 2.5, Heterogeneity: 8, CCR: 0.5, Seed: 42,
	})
}

func mustSchedule(t *testing.T, name string, b scheduler.Budget, opts ...scheduler.Option) *scheduler.Result {
	t.Helper()
	s := scheduler.MustGet(name, opts...)
	w := equivalenceWorkload()
	res, err := s.Schedule(context.Background(), w.Graph, w.System, b)
	if err != nil {
		t.Fatalf("Schedule(%s): %v", name, err)
	}
	return res
}

// stepEngine steps an engine n times: the registry-free twin of Drive's loop.
func stepEngine[S any](n int, step func() S) {
	for i := 0; i < n; i++ {
		step()
	}
}

// assertLedger compares the iteration and evaluation counts of a wrapped
// run against the directly stepped engine.
func assertLedger(t *testing.T, name string, gotIters int, gotEvals uint64, wantIters int, wantEvals uint64) {
	t.Helper()
	if gotIters != wantIters || gotEvals != wantEvals {
		t.Errorf("%s: iterations/evaluations %d/%d != direct %d/%d", name, gotIters, gotEvals, wantIters, wantEvals)
	}
}

func assertSame(t *testing.T, name string, gotBest schedule.String, gotMs float64, wantBest schedule.String, wantMs float64) {
	t.Helper()
	if gotMs != wantMs {
		t.Errorf("%s: wrapped makespan %v != direct %v", name, gotMs, wantMs)
	}
	if len(gotBest) != len(wantBest) {
		t.Fatalf("%s: wrapped best has %d genes, direct %d", name, len(gotBest), len(wantBest))
	}
	for i := range gotBest {
		if gotBest[i] != wantBest[i] {
			t.Fatalf("%s: best strings differ at gene %d: %v vs %v", name, i, gotBest[i], wantBest[i])
		}
	}
}

func TestSEEquivalence(t *testing.T) {
	w := equivalenceWorkload()
	e, err := core.NewEngine(w.Graph, w.System, core.Options{Bias: -0.1, Y: 3, Seed: 9})
	if err != nil {
		t.Fatalf("core.NewEngine: %v", err)
	}
	stepEngine(60, e.Step)
	direct := e.Result()
	res := mustSchedule(t, "se", scheduler.Budget{MaxIterations: 60},
		scheduler.WithBias(-0.1), scheduler.WithY(3), scheduler.WithSeed(9))
	assertSame(t, "se", res.Best, res.Makespan, direct.Best, direct.BestMakespan)
	assertLedger(t, "se", res.Iterations, res.Evaluations, direct.Iterations, direct.Evaluations)
}

func TestSEEquivalenceWithObservers(t *testing.T) {
	// Tracing and progress sampling must not perturb the search.
	w := equivalenceWorkload()
	e, err := core.NewEngine(w.Graph, w.System, core.Options{Y: 3, Seed: 9})
	if err != nil {
		t.Fatalf("core.NewEngine: %v", err)
	}
	stepEngine(40, e.Step)
	direct := e.Result()
	res := mustSchedule(t, "se", scheduler.Budget{
		MaxIterations: 40,
		OnProgress:    func(scheduler.Progress) bool { return true },
	}, scheduler.WithY(3), scheduler.WithSeed(9), scheduler.WithTrace())
	assertSame(t, "se+observers", res.Best, res.Makespan, direct.Best, direct.BestMakespan)
	if len(res.Trace) != direct.Iterations {
		t.Errorf("trace entries = %d, want one per iteration (%d)", len(res.Trace), direct.Iterations)
	}
}

func TestSEShardEquivalence(t *testing.T) {
	w := equivalenceWorkload()
	e, err := shard.NewEngine(w.Graph, w.System, shard.Options{Shards: 3, Bias: -0.1, Y: 3, Seed: 9})
	if err != nil {
		t.Fatalf("shard.NewEngine: %v", err)
	}
	stepEngine(40, e.Step)
	direct := e.Result()
	res := mustSchedule(t, "se-shard", scheduler.Budget{MaxIterations: 40},
		scheduler.WithShards(3), scheduler.WithBias(-0.1), scheduler.WithY(3), scheduler.WithSeed(9))
	assertSame(t, "se-shard", res.Best, res.Makespan, direct.Best, direct.BestMakespan)
	assertLedger(t, "se-shard", res.Iterations, res.Evaluations, direct.Iterations, direct.Evaluations)
}

func TestSEShardSingleShardMatchesSerialSE(t *testing.T) {
	// The registry-level differential guard: se-shard with one shard must
	// be bit-identical to se for any shared configuration.
	for _, seed := range []int64{3, 21} {
		serial := mustSchedule(t, "se", scheduler.Budget{MaxIterations: 50},
			scheduler.WithBias(-0.1), scheduler.WithY(4), scheduler.WithSeed(seed))
		sharded := mustSchedule(t, "se-shard", scheduler.Budget{MaxIterations: 50},
			scheduler.WithShards(1), scheduler.WithBias(-0.1), scheduler.WithY(4), scheduler.WithSeed(seed))
		assertSame(t, "se-shard/1", sharded.Best, sharded.Makespan, serial.Best, serial.Makespan)
		if sharded.Iterations != serial.Iterations || sharded.Evaluations != serial.Evaluations ||
			sharded.DeltaEvaluations != serial.DeltaEvaluations || sharded.GenesEvaluated != serial.GenesEvaluated {
			t.Errorf("seed %d: single-shard ledger differs from serial SE", seed)
		}
	}
}

func TestGAEquivalence(t *testing.T) {
	w := equivalenceWorkload()
	e, err := ga.NewEngine(w.Graph, w.System, ga.Options{
		PopulationSize: 60, CrossoverRate: 0.4, MutationRate: 0.05, Seed: 9,
	})
	if err != nil {
		t.Fatalf("ga.NewEngine: %v", err)
	}
	stepEngine(30, e.Step)
	direct := e.Result()
	res := mustSchedule(t, "ga", scheduler.Budget{MaxIterations: 30},
		scheduler.WithPopulation(60), scheduler.WithCrossover(0.4),
		scheduler.WithMutation(0.05), scheduler.WithSeed(9))
	assertSame(t, "ga", res.Best, res.Makespan, direct.Best, direct.BestMakespan)
	assertLedger(t, "ga", res.Iterations, res.Evaluations, direct.Generations, direct.Evaluations)
}

func TestSAEquivalence(t *testing.T) {
	w := equivalenceWorkload()
	e, err := sa.NewEngine(w.Graph, w.System, sa.Options{Seed: 9})
	if err != nil {
		t.Fatalf("sa.NewEngine: %v", err)
	}
	stepEngine(50, e.Step)
	direct := e.Result()
	res := mustSchedule(t, "sa", scheduler.Budget{MaxIterations: 50}, scheduler.WithSeed(9))
	assertSame(t, "sa", res.Best, res.Makespan, direct.Best, direct.BestMakespan)
	assertLedger(t, "sa", res.Iterations, res.Evaluations, direct.Blocks, direct.Evaluations)
}

func TestTabuEquivalence(t *testing.T) {
	w := equivalenceWorkload()
	e, err := tabu.NewEngine(w.Graph, w.System, tabu.Options{Seed: 9})
	if err != nil {
		t.Fatalf("tabu.NewEngine: %v", err)
	}
	stepEngine(50, e.Step)
	direct := e.Result()
	res := mustSchedule(t, "tabu", scheduler.Budget{MaxIterations: 50}, scheduler.WithSeed(9))
	assertSame(t, "tabu", res.Best, res.Makespan, direct.Best, direct.BestMakespan)
	assertLedger(t, "tabu", res.Iterations, res.Evaluations, direct.Iterations, direct.Evaluations)
}

func TestConstructiveEquivalence(t *testing.T) {
	w := equivalenceWorkload()
	direct := map[string]heuristics.Result{
		"heft":      heuristics.HEFT(w.Graph, w.System),
		"cpop":      heuristics.CPOP(w.Graph, w.System),
		"minmin":    heuristics.MinMin(w.Graph, w.System),
		"maxmin":    heuristics.MaxMin(w.Graph, w.System),
		"sufferage": heuristics.Sufferage(w.Graph, w.System),
		"mct":       heuristics.MCT(w.Graph, w.System),
		"random":    heuristics.Random(w.Graph, w.System, 9),
	}
	for name, want := range direct {
		res := mustSchedule(t, name, scheduler.Budget{}, scheduler.WithSeed(9))
		assertSame(t, name, res.Best, res.Makespan, want.Solution, want.Makespan)
	}
}
