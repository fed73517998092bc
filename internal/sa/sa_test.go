package sa_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/sa"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

func smallWorkload() *workload.Workload {
	return workload.MustGenerate(workload.Params{
		Tasks: 20, Machines: 4, Connectivity: 2, Heterogeneity: 6, CCR: 0.5, Seed: 42,
	})
}

// run steps a fresh engine n temperature blocks (MovesPerTemp defaults to
// the task count, 20 moves here) and returns its result: Drive's loop at
// engine level.
func run(t *testing.T, w *workload.Workload, opts sa.Options, n int) *sa.Result {
	t.Helper()
	e, err := sa.NewEngine(w.Graph, w.System, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for i := 0; i < n; i++ {
		e.Step()
	}
	return e.Result()
}

// scheduleSA runs the registry's sa with the given seed on w under b.
func scheduleSA(t *testing.T, w *workload.Workload, seed int64, b scheduler.Budget) *scheduler.Result {
	t.Helper()
	res, err := scheduler.MustGet("sa", scheduler.WithSeed(seed)).Schedule(context.Background(), w.Graph, w.System, b)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	return res
}

func TestRunReturnsValidSolution(t *testing.T) {
	w := smallWorkload()
	res := run(t, w, sa.Options{Seed: 1}, 100)
	if err := schedule.Validate(res.Best, w.Graph, w.System); err != nil {
		t.Fatalf("SA returned invalid solution: %v", err)
	}
	if res.Moves < 2000 {
		t.Errorf("Moves = %d, want >= 2000", res.Moves)
	}
	if res.Accepted == 0 {
		t.Error("no moves accepted")
	}
}

func TestRunImproves(t *testing.T) {
	w := smallWorkload()
	initial := make(schedule.String, 20)
	for i, tk := range w.Graph.TopoOrder() {
		initial[i] = schedule.Gene{Task: tk, Machine: 0}
	}
	initMs := schedule.NewEvaluator(w.Graph, w.System).Makespan(initial)
	res := run(t, w, sa.Options{Seed: 1, Initial: initial}, 250)
	if res.BestMakespan >= initMs {
		t.Errorf("SA did not improve: best %v, initial %v", res.BestMakespan, initMs)
	}
}

func TestRunRespectsLowerBound(t *testing.T) {
	w := smallWorkload()
	lb := schedule.LowerBound(w.Graph, w.System)
	res := run(t, w, sa.Options{Seed: 2}, 150)
	if res.BestMakespan < lb-1e-9 {
		t.Errorf("best %v below lower bound %v", res.BestMakespan, lb)
	}
	if got := schedule.NewEvaluator(w.Graph, w.System).Makespan(res.Best); got != res.BestMakespan {
		t.Errorf("reported %v, re-evaluation %v", res.BestMakespan, got)
	}
}

func TestRunDeterministic(t *testing.T) {
	w := smallWorkload()
	a := run(t, w, sa.Options{Seed: 9}, 75)
	b := run(t, w, sa.Options{Seed: 9}, 75)
	if a.BestMakespan != b.BestMakespan || a.Accepted != b.Accepted {
		t.Errorf("same seed diverged: best %v/%v accepted %d/%d",
			a.BestMakespan, b.BestMakespan, a.Accepted, b.Accepted)
	}
}

func TestTimeBudgetStops(t *testing.T) {
	w := smallWorkload()
	start := time.Now()
	scheduleSA(t, w, 1, scheduler.Budget{TimeBudget: 50 * time.Millisecond})
	if time.Since(start) > time.Second {
		t.Error("TimeBudget overshot grossly")
	}
}

func TestNoImprovementStops(t *testing.T) {
	w := smallWorkload()
	// 25 blocks of 20 moves: the walk stops after 500 proposed moves
	// without improvement.
	res := scheduleSA(t, w, 1, scheduler.Budget{NoImprovement: 25, MaxIterations: 100000})
	if res.Iterations < 25 || res.Iterations >= 100000 {
		t.Errorf("Iterations = %d, want a stop in [25, 100000)", res.Iterations)
	}
}

func TestOptionErrors(t *testing.T) {
	w := smallWorkload()
	t.Run("no stop", func(t *testing.T) {
		_, err := scheduler.MustGet("sa").Schedule(context.Background(), w.Graph, w.System, scheduler.Budget{})
		if err == nil || !strings.Contains(err.Error(), "stopping criterion") {
			t.Errorf("unbounded run: error = %v, want a missing stopping criterion", err)
		}
	})
	cases := []struct {
		name string
		opts sa.Options
		want string
	}{
		{"bad cooling", sa.Options{Cooling: 1.5}, "Cooling"},
		{"bad initial", sa.Options{Initial: schedule.String{{Task: 0, Machine: 0}}}, "Initial"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := sa.NewEngine(w.Graph, w.System, tc.opts)
			if err == nil {
				t.Fatal("NewEngine accepted invalid options")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want mentioning %q", err, tc.want)
			}
		})
	}
}

func TestOnBlockObservesAndStops(t *testing.T) {
	w := smallWorkload()
	var blocks int
	res := scheduleSA(t, w, 1, scheduler.Budget{OnProgress: func(p scheduler.Progress) bool {
		if p.Iteration != blocks {
			t.Errorf("Iteration = %d, want %d", p.Iteration, blocks)
		}
		if p.Best <= 0 {
			t.Errorf("progress not populated: %+v", p)
		}
		blocks++
		return blocks < 4
	}})
	if blocks != 4 {
		t.Errorf("OnProgress called %d times, want 4", blocks)
	}
	if res.Iterations != 4 {
		t.Errorf("Iterations = %d, want 4", res.Iterations)
	}
	if res.Evaluations == 0 {
		t.Error("Evaluations = 0, want > 0")
	}
}

func TestOnBlockDoesNotPerturbSearch(t *testing.T) {
	w := smallWorkload()
	plain := scheduleSA(t, w, 5, scheduler.Budget{MaxIterations: 10})
	observed := scheduleSA(t, w, 5, scheduler.Budget{
		MaxIterations: 10,
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
