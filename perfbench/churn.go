package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/live"
	"repro/internal/schedule"
	"repro/internal/serve"
	"repro/internal/workload"
)

// One churn cycle replays each of churnTraces traces of churnEvents events
// on a fresh session. Like generation cost in search, event cost differs
// widely between traces, so a cycle averages over several.
const (
	churnTraces = 24
	churnEvents = 40
)

// churnTraceParams is a 40-event churn trace over a 40-task, 12-machine
// base; the DAG grows as tasks arrive.
func churnTraceParams(seed int64) live.TraceParams {
	return live.TraceParams{
		Base: workload.Params{
			Tasks: 40, Machines: 12,
			Connectivity:  workload.HighConnectivity,
			Heterogeneity: workload.MediumHeterogeneity,
			CCR:           0.5,
			Seed:          seed,
		},
		Events: churnEvents,
		Seed:   seed,
	}
}

// openChurnSession creates a session on the trace's base workload and
// opens its se search.
func openChurnSession(ctx context.Context, c *serve.Client, trc *live.Trace, seed int64) (string, error) {
	base := trc.Base
	info, err := c.CreateSession(ctx, serve.CreateSessionRequest{Params: &base})
	if err != nil {
		return "", fmt.Errorf("churn: create session: %w", err)
	}
	if _, err := c.OpenSearch(ctx, info.ID, serve.RunRequest{Algorithm: "se", Seed: seed}); err != nil {
		return "", fmt.Errorf("churn: open search: %w", err)
	}
	return info.ID, nil
}

// runChurn measures reaction to live churn on a durable daemon with one
// closed-loop client. Each cycle replays the same traces, each on a fresh
// session; an operation is one ApplyEvent followed by StepSearch{Steps: 2}.
func runChurn(cfg config, tr *tracer) (*outcome, error) {
	g, err := parseGolden(cfg.golden)
	if err != nil {
		return nil, err
	}
	dir, cleanup, err := dataDir(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	ctx := context.Background()
	o := &outcome{}

	// Set-up: boot a daemon on an empty store, generate the trace, create
	// the session and open its search, the work a client pays before the
	// first event.
	var d *daemon
	var c *serve.Client
	traces := make([]*live.Trace, churnTraces)
	for r := range setupRepeats {
		start := time.Now()
		if d, err = startDaemon(fmt.Sprintf("%s/%d", dir, r), tr); err != nil {
			return nil, err
		}
		id := tr.begin("live.generate_trace", -1, -1)
		traces[0], err = live.GenerateTrace(churnTraceParams(instanceSeed(cfg.seed, 0)))
		tr.end(id)
		c = serve.NewClient(d.url)
		var sid string
		if err == nil {
			sid, err = openChurnSession(ctx, c, traces[0], instanceSeed(cfg.seed, 0))
		}
		if err == nil {
			o.setup = append(o.setup, time.Since(start))
			// The measured cycles each start from a fresh session.
			err = c.DeleteSession(ctx, sid)
		}
		if err == nil && r < setupRepeats-1 {
			err = d.stop()
		}
		if err != nil {
			d.stop()
			return nil, err
		}
	}
	defer d.stop()
	for i := 1; i < churnTraces; i++ {
		if traces[i], err = live.GenerateTrace(churnTraceParams(instanceSeed(cfg.seed, i))); err != nil {
			return nil, err
		}
	}
	countersBefore, err := registryCounters(d.mgr)
	if err != nil {
		return nil, err
	}
	writesBefore := d.st.Stats()

	var first []goldenEntry
	var firstBest []serve.Result
	var n churnCounts
	var spent effort
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for cycle := 0; ; cycle++ {
		got := make([]goldenEntry, churnTraces)
		for i, trc := range traces {
			best, err := replayTrace(ctx, c, tr, trc, instanceSeed(cfg.seed, i), o, &n)
			if err != nil {
				return nil, err
			}
			spent.genes += best.GenesEvaluated
			spent.evals += best.Evaluations + best.DeltaEvaluations
			got[i] = entry(best.Makespan, best.Solution)
			if cycle == 0 {
				firstBest = append(firstBest, best)
			}
		}
		if first == nil {
			first = got
			if err := checkGolden(g, cfg.seed, g.Churn, got); err != nil {
				o.fail("churn: %v", err)
			}
		} else if err := sameEntries(first, got); err != nil {
			o.fail("churn: cycle %d differs from the first: %v", cycle, err)
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	o.wall = time.Since(start)
	o.peakRSSMB = peakRSSMB()
	if err := d.st.Err(); err != nil {
		o.fail("churn: store: %v", err)
	}
	for i, best := range firstBest {
		if err := checkChurn(traces[i], best); err != nil {
			o.fail("churn: trace %d: %v", i, err)
		}
	}

	if tr != nil {
		countersAfter, err := registryCounters(d.mgr)
		if err != nil {
			return nil, err
		}
		writes := d.st.Stats()
		st := newSpanStats(tr)
		stepHandlers := st.durations("handler.step")
		dw := float64(writes.Writes - writesBefore.Writes)
		delta := func(name string) float64 { return countersAfter[name] - countersBefore[name] }
		o.layers = map[string]float64{
			"core.selected_per_op":      ratio(float64(n.selected), float64(n.steps)),
			"schedule.genes_per_op":     ratio(float64(spent.genes), float64(len(o.lat))),
			"schedule.genes_per_eval":   ratio(float64(spent.genes), float64(spent.evals)),
			"schedule.genes_per_s":      ratio(float64(spent.genes), total(stepHandlers).Seconds()),
			"serve.handler_step_ms":     ms(median(stepHandlers)),
			"serve.handler_event_ms":    st.medianMS("handler.event"),
			"http.transport_ms":         ms(median(st.selfs("client.event", "client.step"))),
			"store.writes_per_mutation": ratio(dw, float64(n.mutations)),
			"store.bytes_per_write":     ratio(float64(writes.Bytes-writesBefore.Bytes), dw),
			"live.amend_ms":             ratio(delta("live_repair_ns_total"), delta("live_events_total")) / 1e6,
		}
	}
	return o, nil
}

// churnCounts accumulates request counts over a run's replays.
type churnCounts struct {
	steps, mutations int
	selected         uint64
}

// replayTrace creates a fresh session, applies every event of the trace
// followed by two search generations, reads the final best and deletes the
// session. Each event-and-step pair is one operation.
func replayTrace(ctx context.Context, c *serve.Client, tr *tracer, trc *live.Trace, seed int64, o *outcome, n *churnCounts) (serve.Result, error) {
	sid, err := openChurnSession(ctx, c, trc, seed)
	if err != nil {
		return serve.Result{}, err
	}
	for _, ev := range trc.Events {
		op := int64(o.attempted)
		o.attempted++
		t0 := time.Now()
		_, err := call(ctx, tr, "event", op, func(ctx context.Context) error {
			_, err := c.ApplyEvent(ctx, sid, ev)
			return err
		})
		n.mutations++
		var step serve.StepResponse
		if err == nil {
			_, err = call(ctx, tr, "step", op, func(ctx context.Context) (err error) {
				step, err = c.StepSearch(ctx, sid, serve.StepRequest{Steps: 2})
				return err
			})
			n.mutations++
		}
		d := time.Since(t0)
		if err != nil {
			o.fail("churn: session %s op %d: %v", sid, op, err)
			continue
		}
		o.lat = append(o.lat, d)
		n.steps++
		n.selected += uint64(step.Progress.Selected)
	}
	best, err := c.SearchBest(ctx, sid)
	if err != nil {
		return best, fmt.Errorf("churn: read best: %w", err)
	}
	if err := c.DeleteSession(ctx, sid); err != nil {
		return best, fmt.Errorf("churn: delete session: %w", err)
	}
	return best, nil
}

// checkChurn replays the trace's amendments offline and verifies that the
// served final best is a valid schedule of the amended DAG whose makespan
// an independent evaluator reproduces.
func checkChurn(trc *live.Trace, best serve.Result) error {
	w, err := workload.Generate(trc.Base)
	if err != nil {
		return err
	}
	p := live.NewProblem(w)
	for _, ev := range trc.Events {
		if _, err := p.Apply(ev); err != nil {
			return err
		}
	}
	s, err := schedule.Parse(best.Solution)
	if err != nil {
		return fmt.Errorf("final solution: %w", err)
	}
	if err := schedule.Validate(s, p.Graph(), p.System()); err != nil {
		return fmt.Errorf("final solution invalid on the amended DAG: %w", err)
	}
	if got := schedule.NewEvaluator(p.Graph(), p.System()).Makespan(s); got != best.Makespan {
		return fmt.Errorf("evaluator gives makespan %v on the amended DAG, served %v", got, best.Makespan)
	}
	return nil
}
