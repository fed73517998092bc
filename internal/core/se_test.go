package core_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

func taskID(i int) taskgraph.TaskID { return taskgraph.TaskID(i) }

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
// per-generation statistics. It is Drive's loop at engine level, so every
// core.Options field is reachable, including those the registry does not
// expose.
func run(t *testing.T, w *workload.Workload, opts core.Options, n int) (*core.Result, []core.IterationStats) {
	t.Helper()
	e, err := core.NewEngine(w.Graph, w.System, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	trace := make([]core.IterationStats, n)
	for i := range trace {
		trace[i] = e.Step()
	}
	return e.Result(), trace
}

// scheduleSE runs the registry's se, seeded 1, on w under b.
func scheduleSE(t *testing.T, w *workload.Workload, b scheduler.Budget) *scheduler.Result {
	t.Helper()
	res, err := scheduler.MustGet("se", scheduler.WithSeed(1)).Schedule(context.Background(), w.Graph, w.System, b)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	return res
}

func TestRunReturnsValidSolution(t *testing.T) {
	w := smallWorkload()
	res, _ := run(t, w, core.Options{Seed: 1}, 50)
	if err := schedule.Validate(res.Best, w.Graph, w.System); err != nil {
		t.Fatalf("SE returned invalid solution: %v", err)
	}
	if res.Iterations != 50 {
		t.Errorf("Iterations = %d, want 50", res.Iterations)
	}
	if res.Evaluations == 0 {
		t.Error("Evaluations = 0")
	}
}

func TestRunImprovesOverInitial(t *testing.T) {
	w := smallWorkload()
	e := schedule.NewEvaluator(w.Graph, w.System)

	// A deliberately poor but valid initial solution: everything on
	// machine 0 in deterministic topological order.
	initial := make(schedule.String, 20)
	for i, tk := range w.Graph.TopoOrder() {
		initial[i] = schedule.Gene{Task: tk, Machine: 0}
	}
	initMs := e.Makespan(initial)

	res, _ := run(t, w, core.Options{Seed: 1, Initial: initial}, 100)
	if res.BestMakespan >= initMs {
		t.Errorf("SE did not improve: best %v, initial %v", res.BestMakespan, initMs)
	}
}

func TestRunRespectsLowerBound(t *testing.T) {
	w := smallWorkload()
	lb := schedule.LowerBound(w.Graph, w.System)
	res, _ := run(t, w, core.Options{Seed: 3}, 200)
	if res.BestMakespan < lb-1e-9 {
		t.Errorf("best makespan %v below lower bound %v", res.BestMakespan, lb)
	}
	if got := schedule.NewEvaluator(w.Graph, w.System).Makespan(res.Best); got != res.BestMakespan {
		t.Errorf("reported best %v but re-evaluation gives %v", res.BestMakespan, got)
	}
}

func TestRunDeterministic(t *testing.T) {
	w := smallWorkload()
	opts := core.Options{Seed: 7, Y: 2, Bias: -0.1}
	a, _ := run(t, w, opts, 60)
	b, _ := run(t, w, opts, 60)
	if a.BestMakespan != b.BestMakespan {
		t.Errorf("same seed, different best: %v vs %v", a.BestMakespan, b.BestMakespan)
	}
	for i := range a.Best {
		if a.Best[i] != b.Best[i] {
			t.Fatalf("same seed, different solutions at gene %d", i)
		}
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	w := smallWorkload()
	a, _ := run(t, w, core.Options{Seed: 1}, 30)
	b, _ := run(t, w, core.Options{Seed: 2}, 30)
	same := true
	for i := range a.Best {
		if a.Best[i] != b.Best[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds walked identical search paths")
	}
}

// TestRunParallelMatchesSerial checks the documented guarantee that the
// worker pool changes wall-clock time only: same seed → bit-identical
// solutions.
func TestRunParallelMatchesSerial(t *testing.T) {
	w := workload.MustGenerate(workload.Params{
		Tasks: 30, Machines: 6, Connectivity: 3, Heterogeneity: 8, CCR: 1, Seed: 9,
	})
	serial, _ := run(t, w, core.Options{Seed: 5}, 40)
	parallel, _ := run(t, w, core.Options{Seed: 5, Workers: 4}, 40)
	if serial.BestMakespan != parallel.BestMakespan {
		t.Errorf("serial best %v != parallel best %v", serial.BestMakespan, parallel.BestMakespan)
	}
	for i := range serial.Best {
		if serial.Best[i] != parallel.Best[i] {
			t.Fatalf("solutions diverge at gene %d: %v vs %v", i, serial.Best[i], parallel.Best[i])
		}
	}
}

func TestTraceRecording(t *testing.T) {
	w := smallWorkload()
	_, trace := run(t, w, core.Options{Seed: 1}, 25)
	for i, st := range trace {
		if st.Iteration != i {
			t.Errorf("Trace[%d].Iteration = %d", i, st.Iteration)
		}
		if st.Selected < 0 || st.Selected > 20 {
			t.Errorf("Trace[%d].Selected = %d out of range", i, st.Selected)
		}
		if st.BestMakespan > st.CurrentMakespan+1e-9 && i == 0 {
			t.Errorf("iteration 0: best %v > current %v", st.BestMakespan, st.CurrentMakespan)
		}
	}
	// Best-so-far must be monotone non-increasing.
	for i := 1; i < len(trace); i++ {
		if trace[i].BestMakespan > trace[i-1].BestMakespan+1e-9 {
			t.Errorf("best-so-far increased at iteration %d", i)
		}
	}
}

func TestBiasControlsSelectionSize(t *testing.T) {
	w := smallWorkload()
	mean := func(bias float64) float64 {
		_, trace := run(t, w, core.Options{Seed: 11, Bias: bias}, 40)
		total := 0
		for _, st := range trace {
			total += st.Selected
		}
		return float64(total) / float64(len(trace))
	}
	negative := mean(-0.3) // paper: negative bias → more selected
	positive := mean(0.3)  // positive bias → fewer selected
	if negative <= positive {
		t.Errorf("mean selected: bias -0.3 → %.1f, bias +0.3 → %.1f; want more with negative bias", negative, positive)
	}
}

func TestOnIterationStopsRun(t *testing.T) {
	w := smallWorkload()
	calls := 0
	res := scheduleSE(t, w, scheduler.Budget{OnProgress: func(scheduler.Progress) bool {
		calls++
		return calls < 5
	}})
	if calls != 5 {
		t.Errorf("OnProgress called %d times, want 5", calls)
	}
	if res.Iterations != 5 {
		t.Errorf("Iterations = %d, want 5", res.Iterations)
	}
}

func TestTimeBudgetStopsRun(t *testing.T) {
	w := smallWorkload()
	budget := 50 * time.Millisecond
	start := time.Now()
	scheduleSE(t, w, scheduler.Budget{TimeBudget: budget})
	if elapsed := time.Since(start); elapsed > 20*budget {
		t.Errorf("run took %v with a %v budget", elapsed, budget)
	}
}

func TestNoImprovementStopsRun(t *testing.T) {
	w := smallWorkload()
	res := scheduleSE(t, w, scheduler.Budget{NoImprovement: 10, MaxIterations: 100000})
	if res.Iterations >= 100000 {
		t.Error("NoImprovement did not stop the run")
	}
}

func TestYRestrictsMachines(t *testing.T) {
	w := smallWorkload()
	res, _ := run(t, w, core.Options{Seed: 2, Y: 1, InitialMoves: core.NoInitialMoves}, 60)
	// With Y=1 every relocated task lands on its best-matching machine;
	// over enough iterations nearly all tasks end up there. At minimum the
	// result must stay valid and the run must complete.
	if err := schedule.Validate(res.Best, w.Graph, w.System); err != nil {
		t.Fatalf("invalid solution with Y=1: %v", err)
	}
}

func TestInitialSolutionUsed(t *testing.T) {
	w := smallWorkload()
	initial := make(schedule.String, 20)
	for i, tk := range w.Graph.TopoOrder() {
		initial[i] = schedule.Gene{Task: tk, Machine: 1}
	}
	_, trace := run(t, w, core.Options{Seed: 1, Initial: initial, Bias: 2}, 1) // bias 2: select nothing
	wantMs := schedule.NewEvaluator(w.Graph, w.System).Makespan(initial)
	if trace[0].CurrentMakespan != wantMs {
		t.Errorf("iteration 0 makespan = %v, want initial's %v", trace[0].CurrentMakespan, wantMs)
	}
	if trace[0].Selected != 0 {
		t.Errorf("bias 2 selected %d tasks, want 0", trace[0].Selected)
	}
}

func TestOptionErrors(t *testing.T) {
	w := smallWorkload()
	t.Run("no stop", func(t *testing.T) {
		_, err := scheduler.MustGet("se").Schedule(context.Background(), w.Graph, w.System, scheduler.Budget{})
		if err == nil || !strings.Contains(err.Error(), "stopping criterion") {
			t.Errorf("unbounded run: error = %v, want a missing stopping criterion", err)
		}
	})
	cases := []struct {
		name string
		opts core.Options
		want string
	}{
		{"negative Y", core.Options{Y: -1}, "Y"},
		{"bad initial", core.Options{Initial: schedule.String{{Task: 0, Machine: 0}}}, "Initial"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := core.NewEngine(w.Graph, w.System, tc.opts)
			if err == nil {
				t.Fatal("NewEngine accepted invalid options")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want mentioning %q", err, tc.want)
			}
		})
	}
}

func TestMismatchedGraphSystem(t *testing.T) {
	w := smallWorkload()
	other := workload.Figure1()
	if _, err := core.NewEngine(w.Graph, other.System, core.Options{}); err == nil {
		t.Fatal("NewEngine accepted mismatched graph and system")
	}
}

func TestFigure1SEFindsGoodSchedule(t *testing.T) {
	w := workload.Figure1()
	res, _ := run(t, w, core.Options{Seed: 1, Bias: -0.2}, 200) // small problem: thorough search
	// The Figure-2 example solution scores 3123; SE must at least match a
	// solution the paper presents as merely "valid".
	if res.BestMakespan > 3123 {
		t.Errorf("SE best %v worse than the paper's example solution 3123", res.BestMakespan)
	}
}

func TestSingleMachineWorkload(t *testing.T) {
	w := workload.MustGenerate(workload.Params{
		Tasks: 10, Machines: 1, Connectivity: 1.5, Heterogeneity: 1, CCR: 0.5, Seed: 4,
	})
	res, _ := run(t, w, core.Options{Seed: 1}, 20)
	// One machine: makespan is the serial sum regardless of order.
	sum := 0.0
	for tk := 0; tk < 10; tk++ {
		sum += w.System.MeanExecTime(taskID(tk))
	}
	if diff := res.BestMakespan - sum; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("single-machine makespan = %v, want serial sum %v", res.BestMakespan, sum)
	}
}
