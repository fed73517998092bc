// Package ga implements the genetic-algorithm baseline the paper compares
// SE against (§5.3): the GA-based matching and scheduling approach of
// Wang, Siegel, Roychowdhury & Maciejewski, "Task Matching and Scheduling
// in Heterogeneous Computing Environments Using a Genetic-Algorithm-Based
// Approach", JPDC 47, 1997.
//
// Each chromosome has two parts — Wang et al. keep them as two strings,
// which is exactly what the paper contrasts with SE's single combined
// string:
//
//   - a matching string: a task → machine vector;
//   - a scheduling string: a topological order of the tasks.
//
// One generation performs cost evaluation (schedule length, via the same
// evaluator SE uses), elitist roulette-wheel selection, topology-preserving
// order crossover plus one-point matching crossover, and machine- and
// order-mutation. The caller's Step loop decides when evolution stops.
package ga

import (
	"time"

	"repro/internal/schedule"
)

// Options configures one GA engine. Options carry no stopping criterion:
// the caller's Step loop bounds the search (scheduler.Drive, for registry
// searches).
type Options struct {
	// PopulationSize is the number of chromosomes (default 50, the size
	// used by Wang et al.).
	PopulationSize int

	// CrossoverRate is the per-pair probability of applying each crossover
	// operator (default 0.6).
	CrossoverRate float64

	// MutationRate is the per-chromosome probability of applying each
	// mutation operator (default 0.15).
	MutationRate float64

	// Elitism is the number of best chromosomes copied unchanged into the
	// next generation (default 1; Wang et al. always preserve the best).
	Elitism int

	// Seed drives all randomness.
	Seed int64

	// Workers > 1 evaluates population fitness on that many goroutines.
	Workers int

	// Initial, when non-nil, seeds one chromosome with this solution
	// (Wang et al. seed the population with a baseline heuristic's
	// solution). It must be valid for the graph/system.
	Initial schedule.String

	// FullEval disables the incremental evaluation engine and scores
	// every chromosome with a full pass. Fitness values are bit-identical
	// either way; this exists for ablations and differential tests.
	FullEval bool
}

func (o Options) withDefaults() Options {
	if o.PopulationSize == 0 {
		o.PopulationSize = 50
	}
	if o.CrossoverRate == 0 {
		o.CrossoverRate = 0.6
	}
	if o.MutationRate == 0 {
		o.MutationRate = 0.15
	}
	if o.Elitism == 0 {
		o.Elitism = 1
	}
	return o
}

// GenerationStats describes one GA generation.
type GenerationStats struct {
	// Generation numbers generations from 0.
	Generation int
	// BestMakespan is the best schedule length seen so far in the run.
	BestMakespan float64
	// GenerationBest is the best schedule length within this generation.
	GenerationBest float64
	// GenerationMean is the mean schedule length of this generation.
	GenerationMean float64
	// Elapsed is wall-clock time since the run started.
	Elapsed time.Duration
}

// Result is the outcome of a GA run.
type Result struct {
	// Best is the best combined matching+scheduling string found.
	Best schedule.String
	// BestMakespan is Best's schedule length.
	BestMakespan float64
	// Generations is the number of generations executed.
	Generations int
	// Evaluations counts full schedule evaluations across all goroutines
	// (including delta-engine pins).
	Evaluations uint64
	// DeltaEvaluations counts checkpointed suffix replays — chromosomes
	// whose string shared a long enough prefix with the evaluator's pinned
	// base; zero when Options.FullEval is set.
	DeltaEvaluations uint64
	// GenesEvaluated counts gene evaluation steps across full and delta
	// evaluations.
	GenesEvaluated uint64
	// Elapsed is the accumulated in-Step wall-clock time.
	Elapsed time.Duration
}
