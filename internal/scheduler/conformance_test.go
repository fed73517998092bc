package scheduler_test

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

func conformanceWorkload() *workload.Workload {
	return workload.MustGenerate(workload.Params{
		Tasks: 24, Machines: 5, Connectivity: 2.5, Heterogeneity: 6, CCR: 0.5, Seed: 11,
	})
}

// TestConformance runs every registered scheduler through the contract the
// interface promises: a valid best string whose makespan matches the
// shared evaluator and respects the lower bound, determinism under a fixed
// seed, iteration/time/no-improvement budgets respected, OnProgress
// stopping the run, observation taps leaving the search untouched, and
// context cancellation surfacing ctx.Err(). Schedule is a Budget loop
// over the resumable Search API (one Budget iteration = one Search.Step),
// so this suite is also the conformance bar for every engine behind Open;
// the snapshot/restore half of that contract lives in resume_test.go.
func TestConformance(t *testing.T) {
	w := conformanceWorkload()
	lb := schedule.LowerBound(w.Graph, w.System)
	for _, name := range scheduler.Names() {
		t.Run(name, func(t *testing.T) {
			info, ok := scheduler.Describe(name)
			if !ok {
				t.Fatalf("registered name %q has no Info", name)
			}

			t.Run("result-sanity", func(t *testing.T) {
				s := scheduler.MustGet(name, scheduler.WithSeed(1))
				res, err := s.Schedule(context.Background(), w.Graph, w.System,
					scheduler.Budget{MaxIterations: 10})
				if err != nil {
					t.Fatalf("Schedule: %v", err)
				}
				if err := schedule.Validate(res.Best, w.Graph, w.System); err != nil {
					t.Fatalf("Best is not a valid solution: %v", err)
				}
				got := schedule.NewEvaluator(w.Graph, w.System).Makespan(res.Best)
				if math.Abs(got-res.Makespan) > 1e-9 {
					t.Errorf("Makespan = %v but re-evaluating Best gives %v", res.Makespan, got)
				}
				if res.Makespan < lb {
					t.Errorf("Makespan %v below the contention-free lower bound %v", res.Makespan, lb)
				}
				if res.Iterations <= 0 {
					t.Errorf("Iterations = %d, want > 0", res.Iterations)
				}
				if res.Evaluations == 0 {
					t.Errorf("Evaluations = 0, want > 0")
				}
			})

			t.Run("deterministic", func(t *testing.T) {
				run := func() *scheduler.Result {
					s := scheduler.MustGet(name, scheduler.WithSeed(7))
					res, err := s.Schedule(context.Background(), w.Graph, w.System,
						scheduler.Budget{MaxIterations: 12})
					if err != nil {
						t.Fatalf("Schedule: %v", err)
					}
					return res
				}
				a, b := run(), run()
				if a.Makespan != b.Makespan {
					t.Errorf("same seed, different makespans: %v vs %v", a.Makespan, b.Makespan)
				}
				if len(a.Best) != len(b.Best) {
					t.Fatalf("same seed, different string lengths")
				}
				for i := range a.Best {
					if a.Best[i] != b.Best[i] {
						t.Fatalf("same seed, best strings differ at gene %d: %v vs %v", i, a.Best[i], b.Best[i])
					}
				}
			})

			t.Run("max-iterations-respected", func(t *testing.T) {
				s := scheduler.MustGet(name, scheduler.WithSeed(1))
				const limit = 5
				res, err := s.Schedule(context.Background(), w.Graph, w.System,
					scheduler.Budget{MaxIterations: limit})
				if err != nil {
					t.Fatalf("Schedule: %v", err)
				}
				if res.Iterations > limit {
					t.Errorf("Iterations = %d, want <= %d", res.Iterations, limit)
				}
			})

			t.Run("time-budget-respected", func(t *testing.T) {
				s := scheduler.MustGet(name, scheduler.WithSeed(1))
				budget := 50 * time.Millisecond
				start := time.Now()
				if _, err := s.Schedule(context.Background(), w.Graph, w.System,
					scheduler.Budget{TimeBudget: budget}); err != nil {
					t.Fatalf("Schedule: %v", err)
				}
				// Generous slack: the run stops at an iteration boundary.
				if elapsed := time.Since(start); elapsed > budget+2*time.Second {
					t.Errorf("run took %v against a %v budget", elapsed, budget)
				}
			})

			t.Run("trace-and-progress", func(t *testing.T) {
				s := scheduler.MustGet(name, scheduler.WithSeed(1), scheduler.WithTrace())
				var calls int
				res, err := s.Schedule(context.Background(), w.Graph, w.System, scheduler.Budget{
					MaxIterations: 6,
					OnProgress: func(p scheduler.Progress) bool {
						calls++
						if p.Best <= 0 {
							t.Errorf("Progress.Best = %v, want > 0", p.Best)
						}
						return true
					},
				})
				if err != nil {
					t.Fatalf("Schedule: %v", err)
				}
				if calls == 0 {
					t.Error("OnProgress never called")
				}
				if len(res.Trace) != calls {
					t.Errorf("Trace has %d entries, OnProgress saw %d", len(res.Trace), calls)
				}
			})

			// Observation taps must not perturb the search: every tap on
			// at once leaves the outcome and the whole effort ledger
			// identical to an unobserved run.
			t.Run("observer-invariance", func(t *testing.T) {
				b := scheduler.Budget{MaxIterations: 8}
				plain, err := scheduler.MustGet(name, scheduler.WithSeed(1)).Schedule(context.Background(), w.Graph, w.System, b)
				if err != nil {
					t.Fatalf("Schedule: %v", err)
				}
				progressed, tapped := 0, 0
				b.OnProgress = func(scheduler.Progress) bool { progressed++; return true }
				s := scheduler.MustGet(name, scheduler.WithSeed(1), scheduler.WithTrace(),
					scheduler.WithObserver(func(scheduler.Progress) { tapped++ }))
				observed, err := s.Schedule(context.Background(), w.Graph, w.System, b)
				if err != nil {
					t.Fatalf("Schedule: %v", err)
				}
				assertSameOutcome(t, name, *observed, *plain)
				if observed.Iterations != plain.Iterations || observed.Evaluations != plain.Evaluations ||
					observed.DeltaEvaluations != plain.DeltaEvaluations || observed.GenesEvaluated != plain.GenesEvaluated {
					t.Errorf("observed ledger %d/%d/%d/%d != unobserved %d/%d/%d/%d",
						observed.Iterations, observed.Evaluations, observed.DeltaEvaluations, observed.GenesEvaluated,
						plain.Iterations, plain.Evaluations, plain.DeltaEvaluations, plain.GenesEvaluated)
				}
				n := observed.Iterations
				if progressed != n || tapped != n || len(observed.Trace) != n {
					t.Errorf("taps saw %d progress / %d observer / %d trace entries, want %d each",
						progressed, tapped, len(observed.Trace), n)
				}
			})

			// The no-improvement criterion stops a run exactly where a
			// hand-stepped twin asking the search's Stalled after every
			// Step stops; a constructive heuristic finishes (and counts as
			// stalled) after its single step.
			t.Run("no-improvement", func(t *testing.T) {
				const k, limit = 10, 100_000
				b := scheduler.Budget{NoImprovement: k, MaxIterations: limit}
				run := func() *scheduler.Result {
					res, err := scheduler.MustGet(name, scheduler.WithSeed(1)).Schedule(context.Background(), w.Graph, w.System, b)
					if err != nil {
						t.Fatalf("Schedule: %v", err)
					}
					return res
				}
				res := run()
				if again := run(); again.Iterations != res.Iterations {
					t.Errorf("repeated runs stopped after %d and %d iterations", res.Iterations, again.Iterations)
				} else {
					assertSameOutcome(t, name+" repeated", *again, *res)
				}

				s, err := scheduler.Open(name, w.Graph, w.System, scheduler.WithSeed(1))
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				st, ok := s.(interface{ Stalled(int) bool })
				if !ok {
					t.Fatal("registry search has no Stalled method")
				}
				steps, stalled := 0, false
				for more := true; more && !stalled && steps < limit; {
					_, more = s.Step(context.Background())
					steps++
					stalled = st.Stalled(k)
				}
				if res.Iterations != steps {
					t.Errorf("Drive stopped after %d iterations, the hand-stepped twin after %d", res.Iterations, steps)
				}
				assertSameOutcome(t, name+" twin", s.Best(), *res)

				if info.Kind == scheduler.Constructive {
					if steps != 1 || !stalled {
						t.Errorf("constructive run took %d steps (stalled %v), want 1 step, stalled", steps, stalled)
					}
				} else if res.Iterations < k || res.Iterations >= limit {
					t.Errorf("Iterations = %d, want a stop in [%d, %d)", res.Iterations, k, limit)
				}
			})

			t.Run("cancelled-context", func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				s := scheduler.MustGet(name, scheduler.WithSeed(1))
				if _, err := s.Schedule(ctx, w.Graph, w.System,
					scheduler.Budget{MaxIterations: 5}); err != context.Canceled {
					t.Errorf("Schedule on cancelled ctx = %v, want context.Canceled", err)
				}
			})

			if info.Kind == scheduler.Metaheuristic {
				t.Run("on-progress-stops-run", func(t *testing.T) {
					s := scheduler.MustGet(name, scheduler.WithSeed(1))
					res, err := s.Schedule(context.Background(), w.Graph, w.System, scheduler.Budget{
						MaxIterations: 1000,
						OnProgress:    func(scheduler.Progress) bool { return false },
					})
					if err != nil {
						t.Fatalf("Schedule: %v", err)
					}
					if res.Iterations > 2 {
						t.Errorf("false-returning OnProgress did not stop the run: %d iterations", res.Iterations)
					}
				})

				// The serving layer (internal/serve) tears sessions down by
				// cancelling the run's context and still records what the
				// search found: the Step loop must notice the cancellation
				// at the next iteration boundary, return promptly, AND hand
				// back a valid best-so-far result alongside
				// context.Canceled.
				t.Run("mid-run-cancellation", func(t *testing.T) {
					type outcome struct {
						res *scheduler.Result
						err error
					}
					ctx, cancel := context.WithCancel(context.Background())
					s := scheduler.MustGet(name, scheduler.WithSeed(1))
					done := make(chan outcome, 1)
					go func() {
						res, err := s.Schedule(ctx, w.Graph, w.System, scheduler.Budget{})
						done <- outcome{res, err}
					}()
					time.Sleep(20 * time.Millisecond)
					cancelled := time.Now()
					cancel()
					select {
					case o := <-done:
						if since := time.Since(cancelled); since > 2*time.Second {
							t.Errorf("scheduler took %v to return after cancellation", since)
						}
						if o.err != context.Canceled {
							t.Errorf("mid-run cancel returned %v, want context.Canceled", o.err)
						}
						if o.res == nil {
							t.Fatal("mid-run cancel returned no best-so-far result")
						}
						if err := schedule.Validate(o.res.Best, w.Graph, w.System); err != nil {
							t.Fatalf("best-so-far after cancellation is invalid: %v", err)
						}
						got := schedule.NewEvaluator(w.Graph, w.System).Makespan(o.res.Best)
						if math.Abs(got-o.res.Makespan) > 1e-9 {
							t.Errorf("best-so-far Makespan = %v but re-evaluating gives %v", o.res.Makespan, got)
						}
						if o.res.Makespan < lb {
							t.Errorf("best-so-far makespan %v below the lower bound %v", o.res.Makespan, lb)
						}
					case <-time.After(10 * time.Second):
						t.Fatal("scheduler did not stop after cancellation")
					}
				})
			}
		})
	}
}
