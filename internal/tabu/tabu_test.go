package tabu_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/tabu"
	"repro/internal/workload"
)

func smallWorkload() *workload.Workload {
	return workload.MustGenerate(workload.Params{
		Tasks: 20, Machines: 4, Connectivity: 2, Heterogeneity: 6, CCR: 0.5, Seed: 42,
	})
}

// run steps a fresh engine n iterations and returns its result: Drive's
// loop at engine level.
func run(t *testing.T, w *workload.Workload, opts tabu.Options, n int) *tabu.Result {
	t.Helper()
	e, err := tabu.NewEngine(w.Graph, w.System, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for i := 0; i < n; i++ {
		e.Step()
	}
	return e.Result()
}

// scheduleTabu runs the registry's tabu with the given seed on w under b.
func scheduleTabu(t *testing.T, w *workload.Workload, seed int64, b scheduler.Budget) *scheduler.Result {
	t.Helper()
	res, err := scheduler.MustGet("tabu", scheduler.WithSeed(seed)).Schedule(context.Background(), w.Graph, w.System, b)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	return res
}

func TestRunReturnsValidSolution(t *testing.T) {
	w := smallWorkload()
	res := run(t, w, tabu.Options{Seed: 1}, 300)
	if err := schedule.Validate(res.Best, w.Graph, w.System); err != nil {
		t.Fatalf("tabu returned invalid solution: %v", err)
	}
	if res.Iterations != 300 {
		t.Errorf("Iterations = %d, want 300", res.Iterations)
	}
}

func TestRunImproves(t *testing.T) {
	w := smallWorkload()
	initial := make(schedule.String, 20)
	for i, tk := range w.Graph.TopoOrder() {
		initial[i] = schedule.Gene{Task: tk, Machine: 0}
	}
	initMs := schedule.NewEvaluator(w.Graph, w.System).Makespan(initial)
	res := run(t, w, tabu.Options{Seed: 1, Initial: initial}, 400)
	if res.BestMakespan >= initMs {
		t.Errorf("tabu did not improve: best %v, initial %v", res.BestMakespan, initMs)
	}
}

func TestRunRespectsLowerBound(t *testing.T) {
	w := smallWorkload()
	lb := schedule.LowerBound(w.Graph, w.System)
	res := run(t, w, tabu.Options{Seed: 2}, 200)
	if res.BestMakespan < lb-1e-9 {
		t.Errorf("best %v below lower bound %v", res.BestMakespan, lb)
	}
	if got := schedule.NewEvaluator(w.Graph, w.System).Makespan(res.Best); got != res.BestMakespan {
		t.Errorf("reported %v, re-evaluation %v", res.BestMakespan, got)
	}
}

func TestRunDeterministic(t *testing.T) {
	w := smallWorkload()
	a := run(t, w, tabu.Options{Seed: 9}, 150)
	b := run(t, w, tabu.Options{Seed: 9}, 150)
	if a.BestMakespan != b.BestMakespan {
		t.Errorf("same seed diverged: %v vs %v", a.BestMakespan, b.BestMakespan)
	}
}

func TestTimeBudgetStops(t *testing.T) {
	w := smallWorkload()
	start := time.Now()
	scheduleTabu(t, w, 1, scheduler.Budget{TimeBudget: 50 * time.Millisecond})
	if time.Since(start) > time.Second {
		t.Error("TimeBudget overshot grossly")
	}
}

func TestNoImprovementStops(t *testing.T) {
	w := smallWorkload()
	res := scheduleTabu(t, w, 1, scheduler.Budget{NoImprovement: 50, MaxIterations: 100000})
	if res.Iterations < 50 || res.Iterations >= 100000 {
		t.Errorf("Iterations = %d, want a stop in [50, 100000)", res.Iterations)
	}
}

func TestOptionErrors(t *testing.T) {
	w := smallWorkload()
	t.Run("no stop", func(t *testing.T) {
		_, err := scheduler.MustGet("tabu").Schedule(context.Background(), w.Graph, w.System, scheduler.Budget{})
		if err == nil || !strings.Contains(err.Error(), "stopping criterion") {
			t.Errorf("unbounded run: error = %v, want a missing stopping criterion", err)
		}
	})
	t.Run("bad initial", func(t *testing.T) {
		_, err := tabu.NewEngine(w.Graph, w.System, tabu.Options{Initial: schedule.String{{Task: 0, Machine: 0}}})
		if err == nil || !strings.Contains(err.Error(), "Initial") {
			t.Errorf("bad initial: error = %v, want mentioning %q", err, "Initial")
		}
	})
}

func TestTenureBlocksImmediateRevisit(t *testing.T) {
	// With an enormous tenure every task moves at most once; the run must
	// still terminate and stay valid.
	w := smallWorkload()
	res := run(t, w, tabu.Options{Tenure: 1 << 30, Seed: 3}, 100)
	if err := schedule.Validate(res.Best, w.Graph, w.System); err != nil {
		t.Fatalf("invalid: %v", err)
	}
}

func TestOnIterationObservesAndStops(t *testing.T) {
	w := smallWorkload()
	var calls int
	res := scheduleTabu(t, w, 1, scheduler.Budget{OnProgress: func(p scheduler.Progress) bool {
		if p.Iteration != calls {
			t.Errorf("Iteration = %d, want %d", p.Iteration, calls)
		}
		if p.Best <= 0 {
			t.Errorf("progress not populated: %+v", p)
		}
		calls++
		return calls < 6
	}})
	if calls != 6 {
		t.Errorf("OnProgress called %d times, want 6", calls)
	}
	if res.Iterations != 6 {
		t.Errorf("Iterations = %d, want 6", res.Iterations)
	}
	if res.Evaluations == 0 {
		t.Error("Evaluations = 0, want > 0")
	}
}

func TestOnIterationDoesNotPerturbSearch(t *testing.T) {
	w := smallWorkload()
	plain := scheduleTabu(t, w, 5, scheduler.Budget{MaxIterations: 40})
	observed := scheduleTabu(t, w, 5, scheduler.Budget{
		MaxIterations: 40,
		OnProgress:    func(scheduler.Progress) bool { return true },
	})
	if plain.Makespan != observed.Makespan {
		t.Errorf("observer changed the search: %v vs %v", plain.Makespan, observed.Makespan)
	}
	for i := range plain.Best {
		if plain.Best[i] != observed.Best[i] {
			t.Fatalf("observer changed the best string at gene %d", i)
		}
	}
}
