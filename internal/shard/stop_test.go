package shard_test

import (
	"context"
	"testing"

	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/shard"
	"repro/internal/workload"
)

func stopWorkload(tasks int, seed int64) *workload.Workload {
	return workload.MustGenerate(workload.Params{
		Tasks: tasks, Machines: 6, Connectivity: 2.5, Heterogeneity: 8, CCR: 0.5, Seed: seed,
	})
}

// TestObserverStopsAllRegions: a false-returning observer stops every
// region at the same round boundary, and the merged best-so-far is still
// reconciled into a valid schedule.
func TestObserverStopsAllRegions(t *testing.T) {
	w := stopWorkload(60, 11)
	calls := 0
	res, err := scheduler.MustGet("se-shard", scheduler.WithShards(4), scheduler.WithSeed(1)).
		Schedule(context.Background(), w.Graph, w.System, scheduler.Budget{
			MaxIterations: 10_000,
			OnProgress: func(p scheduler.Progress) bool {
				calls++
				if p.Best <= 0 {
					t.Errorf("Progress.Best = %v, want > 0", p.Best)
				}
				return calls < 6
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 6 {
		t.Errorf("observer stop after round 6 left %d iterations", res.Iterations)
	}
	if err := schedule.Validate(res.Best, w.Graph, w.System); err != nil {
		t.Fatalf("stopped run returned invalid best: %v", err)
	}
}

func TestRunRejectsUnboundedAndBadOptions(t *testing.T) {
	w := stopWorkload(30, 1)
	if _, err := scheduler.MustGet("se-shard", scheduler.WithShards(2)).
		Schedule(context.Background(), w.Graph, w.System, scheduler.Budget{}); err == nil {
		t.Error("se-shard accepted a run with no stopping criterion")
	}
	if _, err := shard.NewEngine(w.Graph, w.System, shard.Options{Shards: -1}); err == nil {
		t.Error("NewEngine accepted negative Shards")
	}
}
