package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// One search cycle opens a fresh SE search on each of searchDAGs large DAGs
// and steps it searchGenerations generations. Generation cost differs
// several-fold between DAGs of one class (and between search seeds on one
// DAG), so a single DAG made ops_per_s swing by about half between seeds;
// averaging over many DAGs keeps a run representative of the class.
const (
	searchDAGs        = 64
	searchGenerations = 25
)

// searchParams is the large workload class (100 tasks, 20 machines, high
// connectivity, heterogeneity and CCR), drawn from the given seed.
func searchParams(seed int64) workload.Params {
	return workload.Params{
		Tasks: 100, Machines: 20,
		Connectivity:  workload.HighConnectivity,
		Heterogeneity: workload.HighHeterogeneity,
		CCR:           workload.HighCCR,
		Seed:          seed,
	}
}

// instanceSeed derives the seed of a run's i-th DAG, trace or session.
func instanceSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// runSearch measures offline SE through the registry: an operation is one
// Search.Step, that is one SE generation. The schedule and core packages
// do nearly all the work; serve, store and HTTP do none.
func runSearch(cfg config, tr *tracer) (*outcome, error) {
	g, err := parseGolden(cfg.golden)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	dags := make([]*workload.Workload, searchDAGs)
	open := func(i int) (scheduler.Search, error) {
		id := tr.begin("scheduler.open", -1, -1)
		s, err := scheduler.Open("se", dags[i].Graph, dags[i].System, scheduler.WithSeed(instanceSeed(cfg.seed, i)))
		tr.end(id)
		return s, err
	}

	// Set-up: generate a DAG and open its search, the work a user pays
	// before the first generation, once per DAG.
	for i := range dags {
		start := time.Now()
		id := tr.begin("workload.generate", -1, -1)
		dags[i], err = workload.Generate(searchParams(instanceSeed(cfg.seed, i)))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if _, err = open(i); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start))
	}

	ctx := context.Background()
	var first []goldenEntry
	var selected, genes, evals uint64
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for cycle := 0; ; cycle++ {
		got := make([]goldenEntry, searchDAGs)
		for i, w := range dags {
			s, err := open(i)
			if err != nil {
				return nil, err
			}
			for range searchGenerations {
				op := int64(o.attempted)
				o.attempted++
				id := tr.begin("scheduler.step", -1, op)
				t0 := time.Now()
				pr, ok := s.Step(ctx)
				d := time.Since(t0)
				tr.end(id)
				if !ok {
					o.fail("search: DAG %d: Step reported the search exhausted", i)
					continue
				}
				o.lat = append(o.lat, d)
				selected += uint64(pr.Selected)
			}
			res := s.Best()
			genes += res.GenesEvaluated
			evals += res.Evaluations + res.DeltaEvaluations
			got[i] = entry(res.Makespan, res.Best.Format())
			if err := checkSchedule(w, &res); err != nil {
				o.fail("search: cycle %d DAG %d: %v", cycle, i, err)
			}
		}
		if first == nil {
			first = got
			if err := checkGolden(g, cfg.seed, g.Search, got); err != nil {
				o.fail("search: %v", err)
			}
		} else if err := sameEntries(first, got); err != nil {
			o.fail("search: cycle %d differs from the first: %v", cycle, err)
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	o.wall = time.Since(start)
	o.peakRSSMB = peakRSSMB()

	if tr != nil {
		st := newSpanStats(tr)
		steps := st.selfs("scheduler.step")
		ops := float64(len(o.lat))
		o.layers = map[string]float64{
			"workload.generate_ms":    st.medianMS("workload.generate"),
			"scheduler.open_ms":       st.medianMS("scheduler.open"),
			"scheduler.step_ms":       ms(median(steps)),
			"core.selected_per_op":    ratio(float64(selected), ops),
			"schedule.genes_per_op":   ratio(float64(genes), ops),
			"schedule.genes_per_eval": ratio(float64(genes), float64(evals)),
			"schedule.genes_per_s":    ratio(float64(genes), total(steps).Seconds()),
		}
	}
	return o, nil
}

// checkSchedule verifies a final best schedule: it is a valid string for
// the DAG, and an independent evaluator reproduces its makespan.
func checkSchedule(w *workload.Workload, res *scheduler.Result) error {
	if err := schedule.Validate(res.Best, w.Graph, w.System); err != nil {
		return fmt.Errorf("best schedule invalid: %w", err)
	}
	if got := schedule.NewEvaluator(w.Graph, w.System).Makespan(res.Best); got != res.Makespan {
		return fmt.Errorf("evaluator gives makespan %v, search reported %v", got, res.Makespan)
	}
	return nil
}
