package ga_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/ga"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

func smallWorkload() *workload.Workload {
	return workload.MustGenerate(workload.Params{
		Tasks: 20, Machines: 4,
		Connectivity:  2,
		Heterogeneity: 6,
		CCR:           0.5,
		Seed:          42,
	})
}

// run steps a fresh engine n generations and returns its result and the
// per-generation statistics: Drive's loop at engine level.
func run(t *testing.T, w *workload.Workload, opts ga.Options, n int) (*ga.Result, []ga.GenerationStats) {
	t.Helper()
	e, err := ga.NewEngine(w.Graph, w.System, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	trace := make([]ga.GenerationStats, n)
	for i := range trace {
		trace[i] = e.Step()
	}
	return e.Result(), trace
}

// scheduleGA runs the registry's ga, seeded 1, on w under b.
func scheduleGA(t *testing.T, w *workload.Workload, b scheduler.Budget) *scheduler.Result {
	t.Helper()
	res, err := scheduler.MustGet("ga", scheduler.WithSeed(1)).Schedule(context.Background(), w.Graph, w.System, b)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	return res
}

func TestRunReturnsValidSolution(t *testing.T) {
	w := smallWorkload()
	res, _ := run(t, w, ga.Options{Seed: 1}, 30)
	if err := schedule.Validate(res.Best, w.Graph, w.System); err != nil {
		t.Fatalf("GA returned invalid solution: %v", err)
	}
	if res.Generations != 30 {
		t.Errorf("Generations = %d, want 30", res.Generations)
	}
	if res.Evaluations == 0 {
		t.Error("Evaluations = 0")
	}
}

func TestRunImproves(t *testing.T) {
	w := smallWorkload()
	res, trace := run(t, w, ga.Options{Seed: 1}, 60)
	first := trace[0].GenerationBest
	if res.BestMakespan >= first {
		t.Errorf("GA did not improve: best %v, first generation %v", res.BestMakespan, first)
	}
}

func TestRunRespectsLowerBound(t *testing.T) {
	w := smallWorkload()
	lb := schedule.LowerBound(w.Graph, w.System)
	res, _ := run(t, w, ga.Options{Seed: 3}, 50)
	if res.BestMakespan < lb-1e-9 {
		t.Errorf("best %v below lower bound %v", res.BestMakespan, lb)
	}
	if got := schedule.NewEvaluator(w.Graph, w.System).Makespan(res.Best); got != res.BestMakespan {
		t.Errorf("reported best %v, re-evaluation %v", res.BestMakespan, got)
	}
}

func TestRunDeterministic(t *testing.T) {
	w := smallWorkload()
	a, _ := run(t, w, ga.Options{Seed: 7}, 25)
	b, _ := run(t, w, ga.Options{Seed: 7}, 25)
	if a.BestMakespan != b.BestMakespan {
		t.Errorf("same seed, different best: %v vs %v", a.BestMakespan, b.BestMakespan)
	}
}

func TestRunParallelFitnessMatchesSerial(t *testing.T) {
	w := smallWorkload()
	a, _ := run(t, w, ga.Options{Seed: 7}, 25)
	b, _ := run(t, w, ga.Options{Seed: 7, Workers: 4}, 25)
	if a.BestMakespan != b.BestMakespan {
		t.Errorf("parallel fitness changed the search: %v vs %v", a.BestMakespan, b.BestMakespan)
	}
}

func TestElitismMonotone(t *testing.T) {
	w := smallWorkload()
	_, trace := run(t, w, ga.Options{Seed: 5}, 60)
	// With elitism ≥ 1 the per-generation best never regresses past the
	// global best, and the global best is monotone.
	for i := 1; i < len(trace); i++ {
		if trace[i].BestMakespan > trace[i-1].BestMakespan+1e-9 {
			t.Errorf("best-so-far increased at generation %d", i)
		}
	}
}

func TestInitialSeedChromosome(t *testing.T) {
	w := smallWorkload()
	// Seed with everything on machine 0 in topological order.
	initial := make(schedule.String, 20)
	for i, tk := range w.Graph.TopoOrder() {
		initial[i] = schedule.Gene{Task: tk, Machine: 0}
	}
	wantMs := schedule.NewEvaluator(w.Graph, w.System).Makespan(initial)
	_, trace := run(t, w, ga.Options{Seed: 1, Initial: initial}, 1)
	// Generation 0 contains the seed, so its best can be no worse than the
	// seed's cost.
	if trace[0].GenerationBest > wantMs {
		t.Errorf("generation 0 best %v worse than seed %v", trace[0].GenerationBest, wantMs)
	}
}

func TestOnGenerationStops(t *testing.T) {
	w := smallWorkload()
	calls := 0
	res := scheduleGA(t, w, scheduler.Budget{OnProgress: func(scheduler.Progress) bool {
		calls++
		return calls < 4
	}})
	if calls != 4 || res.Iterations != 4 {
		t.Errorf("calls = %d, generations = %d, want 4", calls, res.Iterations)
	}
}

func TestTimeBudgetStops(t *testing.T) {
	w := smallWorkload()
	start := time.Now()
	scheduleGA(t, w, scheduler.Budget{TimeBudget: 50 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("run took %v with a 50ms budget", elapsed)
	}
}

func TestNoImprovementStops(t *testing.T) {
	w := smallWorkload()
	res := scheduleGA(t, w, scheduler.Budget{NoImprovement: 8, MaxIterations: 100000})
	if res.Iterations >= 100000 {
		t.Error("NoImprovement did not stop the run")
	}
}

func TestOptionErrors(t *testing.T) {
	w := smallWorkload()
	t.Run("no stop", func(t *testing.T) {
		_, err := scheduler.MustGet("ga").Schedule(context.Background(), w.Graph, w.System, scheduler.Budget{})
		if err == nil || !strings.Contains(err.Error(), "stopping criterion") {
			t.Errorf("unbounded run: error = %v, want a missing stopping criterion", err)
		}
	})
	cases := []struct {
		name string
		opts ga.Options
		want string
	}{
		{"tiny population", ga.Options{PopulationSize: 1}, "PopulationSize"},
		{"elitism too large", ga.Options{PopulationSize: 4, Elitism: 4}, "Elitism"},
		{"bad crossover", ga.Options{CrossoverRate: 1.5}, "CrossoverRate"},
		{"bad mutation", ga.Options{MutationRate: -0.5}, "MutationRate"},
		{"bad initial", ga.Options{Initial: schedule.String{{Task: 0, Machine: 0}}}, "Initial"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ga.NewEngine(w.Graph, w.System, tc.opts)
			if err == nil {
				t.Fatal("NewEngine accepted invalid options")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want mentioning %q", err, tc.want)
			}
		})
	}
}

func TestEveryGenerationSolutionsValid(t *testing.T) {
	// Indirect operator check: run many generations on a communication-
	// heavy workload; the returned best must always be a valid string.
	w := workload.MustGenerate(workload.Params{
		Tasks: 30, Machines: 5, Connectivity: 4, Heterogeneity: 10, CCR: 1, Seed: 13,
	})
	for seed := int64(1); seed <= 5; seed++ {
		res, _ := run(t, w, ga.Options{Seed: seed}, 40)
		if err := schedule.Validate(res.Best, w.Graph, w.System); err != nil {
			t.Fatalf("seed %d: invalid solution: %v", seed, err)
		}
	}
}
