package schedule

import (
	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// Evaluator computes finish times and makespans of solution strings. It
// owns scratch buffers so that evaluation — the hot inner loop of both SE
// allocation and GA fitness — performs no per-call allocation.
//
// An Evaluator is not safe for concurrent use; create one per goroutine
// (see core's parallel allocation).
type Evaluator struct {
	g   *taskgraph.Graph
	sys *platform.System

	finish []float64             // task → finish time
	assign []taskgraph.MachineID // task → machine, filled during the pass
	ready  []float64             // machine → time it becomes free
	evals  uint64                // number of full evaluations, for ablations
	genes  uint64                // gene steps performed, for ablations
}

// NewEvaluator returns an Evaluator for g on sys.
func NewEvaluator(g *taskgraph.Graph, sys *platform.System) *Evaluator {
	return &Evaluator{
		g:      g,
		sys:    sys,
		finish: make([]float64, g.NumTasks()),
		assign: make([]taskgraph.MachineID, g.NumTasks()),
		ready:  make([]float64, sys.NumMachines()),
	}
}

// Graph returns the task graph the Evaluator is bound to.
func (e *Evaluator) Graph() *taskgraph.Graph { return e.g }

// System returns the platform the Evaluator is bound to.
func (e *Evaluator) System() *platform.System { return e.sys }

// Evaluations returns the number of full evaluations performed so far.
func (e *Evaluator) Evaluations() uint64 { return e.evals }

// Counts returns the evaluation-effort ledger: every evaluation here is a
// full pass, so Delta and Aborted are always zero (compare
// DeltaEvaluator.Counts).
func (e *Evaluator) Counts() EvalCounts {
	return EvalCounts{Full: e.evals, Genes: e.genes}
}

// Makespan returns the total execution time of the application under
// solution s: the maximum finish time over all subtasks.
//
// Semantics (paper §2 and §4.1): machines execute their tasks in string
// order, non-preemptively. A task starts when its machine has finished the
// previous task in its order AND every input data item has arrived; an item
// produced on machine a and consumed on machine b arrives Tr[{a,b}][d] after
// its producer finishes (0 when a == b). Because the string is a global
// topological order, one left-to-right pass computes all finish times.
func (e *Evaluator) Makespan(s String) float64 {
	return e.FinishInto(s, nil)
}

// FinishInto computes the makespan and, when out is non-nil, stores each
// task's finish time in out (indexed by TaskID, length ≥ NumTasks). These
// per-task finish times are the Cᵢ of SE's goodness measure.
func (e *Evaluator) FinishInto(s String, out []float64) float64 {
	e.evals++
	e.genes += uint64(len(s))
	finish := e.finish
	assign := e.assign
	ready := e.ready
	for m := range ready {
		ready[m] = 0
	}
	makespan := 0.0
	for _, gene := range s {
		t, m := gene.Task, gene.Machine
		assign[t] = m
		start := ready[m]
		tr, off := e.sys.TransferRow(m)
		for _, p := range e.g.Preds(t) {
			// finish[p.Task] and assign[p.Task] are already set because the
			// string is a topological order.
			arr := finish[p.Task] + tr[int(off[assign[p.Task]])+int(p.Item)]
			if arr > start {
				start = arr
			}
		}
		f := start + e.sys.ExecTime(m, t)
		finish[t] = f
		ready[m] = f
		if f > makespan {
			makespan = f
		}
	}
	if out != nil {
		copy(out, finish[:e.g.NumTasks()])
	}
	return makespan
}

// MakespanTotal returns the makespan together with the sum of all task
// finish times. SE's allocation uses the sum as a secondary criterion: many
// candidate moves leave the critical path — and hence the makespan —
// unchanged, and preferring the candidate with the smaller total finish
// time compacts the schedule instead of picking arbitrarily among ties.
func (e *Evaluator) MakespanTotal(s String) (makespan, total float64) {
	makespan = e.FinishInto(s, nil)
	for _, gene := range s {
		total += e.finish[gene.Task]
	}
	return makespan, total
}

// StartTimes returns, for reporting, each task's start and finish times
// under s, freshly allocated.
func (e *Evaluator) StartTimes(s String) (start, finish []float64) {
	finish = make([]float64, e.g.NumTasks())
	e.FinishInto(s, finish)
	start = make([]float64, e.g.NumTasks())
	for _, gene := range s {
		start[gene.Task] = finish[gene.Task] - e.sys.ExecTime(gene.Machine, gene.Task)
	}
	return start, finish
}

// LowerBound returns a contention-free lower bound on any solution's
// makespan: the longest path through the DAG where each task costs its
// minimum execution time over all machines and communication is free.
// Every valid schedule's makespan is ≥ this bound, which property tests
// exploit.
func LowerBound(g *taskgraph.Graph, sys *platform.System) float64 {
	finish := make([]float64, g.NumTasks())
	best := 0.0
	for _, t := range g.TopoOrder() {
		start := 0.0
		for _, p := range g.Preds(t) {
			if finish[p.Task] > start {
				start = finish[p.Task]
			}
		}
		finish[t] = start + sys.MinExecTime(t)
		if finish[t] > best {
			best = finish[t]
		}
	}
	return best
}
