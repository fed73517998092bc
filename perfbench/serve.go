package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/workload"
)

const (
	serveClients      = 2
	sessionsPerClient = 16
	// servePrepSteps are the generations each session runs in the untimed
	// preparatory phase, before the recovery boot.
	servePrepSteps = 5
)

// servePattern is the fixed request mix each client repeats: 7 steps (the
// writes), 2 best reads and 1 schedule read. Round j of a cycle sends
// servePattern[j] to each of the client's sessions in turn.
var servePattern = [...]string{"step", "step", "best", "step", "step", "step", "best", "step", "step", "schedule"}

// smallParams is the small workload class (24 tasks, 5 machines): tiny
// DAGs, so HTTP, JSON, the session queue, persist and recovery dominate.
func smallParams(seed int64) workload.Params {
	return workload.Params{
		Tasks: 24, Machines: 5,
		Connectivity:  workload.LowConnectivity,
		Heterogeneity: workload.MediumHeterogeneity,
		CCR:           workload.LowCCR,
		Seed:          seed,
	}
}

// daemon is an in-process mshd: a durable store, a manager and an HTTP
// server on loopback.
type daemon struct {
	st   *store.Store
	mgr  *serve.Manager
	hs   *http.Server
	done chan struct{}
	url  string
}

// startDaemon boots a daemon on dir with fsync on every append (mshd's
// default), replaying whatever sessions the store holds, and returns once
// healthz answers.
func startDaemon(dir string, tr *tracer) (*daemon, error) {
	id := tr.begin("store.open", -1, -1)
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncAlways})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("serve.recover", -1, -1)
	mgr := serve.NewManager(serve.Options{Store: st})
	tr.end(id)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		st.Close()
		return nil, err
	}
	var h http.Handler = serve.NewServer(mgr)
	if tr != nil {
		h = tracedHandler{next: h, tr: tr}
	}
	d := &daemon{st: st, mgr: mgr, hs: &http.Server{Handler: h}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // always ErrServerClosed after stop
	}()
	id = tr.begin("http.healthz", -1, -1)
	err = serve.NewClient(d.url).Health(context.Background())
	tr.end(id)
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the daemon down the way mshd does: HTTP first, then the
// manager spills its sessions, then the store flushes and closes.
func (d *daemon) stop() error {
	err := d.hs.Close()
	<-d.done
	d.mgr.Close()
	return errors.Join(err, d.st.Close())
}

// tracedHandler records one span around Server.ServeHTTP per request, named
// after the operation kind the client put in the request ID.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	kind, op, parent := parseRequestID(r.Header.Get(obs.RequestIDHeader))
	id := h.tr.begin("handler."+kind, parent, op)
	h.next.ServeHTTP(w, r)
	h.tr.end(id)
}

// call times one client request as an operation. Traced, it records a
// client span and passes its id to the server in the request ID.
func call(ctx context.Context, tr *tracer, kind string, op int64, fn func(context.Context) error) (time.Duration, error) {
	id := tr.begin("client."+kind, -1, op)
	if tr != nil {
		ctx = serve.WithRequestID(ctx, requestID(kind, op, id))
	}
	start := time.Now()
	err := fn(ctx)
	d := time.Since(start)
	tr.end(id)
	return d, err
}

// dataDir makes a fresh directory for a run's stores.
func dataDir(cfg config) (string, func(), error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(cfg.dir, "data-"+cfg.workload+"-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// registryCounters reads the manager's metric registry as a flat map of
// counter name to value, summing labeled children.
func registryCounters(mgr *serve.Manager) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := mgr.Registry().WriteJSON(&buf); err != nil {
		return nil, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for name, v := range raw {
		var n float64
		if json.Unmarshal(v, &n) == nil {
			out[name] = n
			continue
		}
		var kids map[string]float64
		if json.Unmarshal(v, &kids) == nil {
			for _, k := range kids {
				out[name] += k
			}
		}
	}
	return out, nil
}

// serveSession is one of the 32 durable sessions and its search seed.
type serveSession struct {
	id    string
	seed  int64
	steps int // generations the session's search has run
}

// runServe measures durable mshd serving: two closed-loop clients each
// drive 16 small sessions with open se searches; an operation is one
// request. setup_s is a daemon restart that replays the 32 sessions.
func runServe(cfg config, tr *tracer) (*outcome, error) {
	dir, cleanup, err := dataDir(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	ctx := context.Background()
	o := &outcome{}

	// Preparatory phase, untimed: persist the sessions the restarts replay.
	sessions := make([]serveSession, serveClients*sessionsPerClient)
	d, err := startDaemon(dir, nil)
	if err != nil {
		return nil, err
	}
	c := serve.NewClient(d.url)
	for i := range sessions {
		s := &sessions[i]
		s.seed = instanceSeed(cfg.seed, i)
		p := smallParams(s.seed)
		info, err := c.CreateSession(ctx, serve.CreateSessionRequest{Params: &p})
		if err == nil {
			_, err = c.OpenSearch(ctx, info.ID, serve.RunRequest{Algorithm: "se", Seed: s.seed})
		}
		if err == nil {
			_, err = c.StepSearch(ctx, info.ID, serve.StepRequest{Steps: servePrepSteps})
		}
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("serve: preparing session %d: %w", i, err)
		}
		s.id, s.steps = info.ID, servePrepSteps
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	// Set-up: restart the daemon, the boot replaying every session.
	for r := range setupRepeats {
		start := time.Now()
		if d, err = startDaemon(dir, tr); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start))
		if got := d.mgr.RecoveredSessions(); got != len(sessions) {
			d.stop()
			return nil, fmt.Errorf("serve: boot replay recovered %d sessions, want %d", got, len(sessions))
		}
		if r < setupRepeats-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer d.stop()
	c = serve.NewClient(d.url)
	_, before, err := readEffort(ctx, c, sessions)
	if err != nil {
		return nil, err
	}
	writesBefore := d.st.Stats()

	// Measured phase: each client repeats its cycle until the deadline.
	type clientResult struct {
		lat              []time.Duration
		attempted, steps int
		selected         uint64
		failed           outcome // failures only, merged after the run
	}
	results := make([]clientResult, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for ci := range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cr := &results[ci]
			mine := sessions[ci*sessionsPerClient : (ci+1)*sessionsPerClient]
			for {
				for _, kind := range servePattern {
					for k := range mine {
						op := int64(ci)<<40 | int64(cr.attempted)
						cr.attempted++
						id := mine[k].id
						var step serve.StepResponse
						took, err := call(ctx, tr, kind, op, func(ctx context.Context) (err error) {
							switch kind {
							case "step":
								step, err = c.StepSearch(ctx, id, serve.StepRequest{Steps: 1})
							case "best":
								_, err = c.SearchBest(ctx, id)
							default:
								_, err = c.Schedule(ctx, id)
							}
							return err
						})
						if err != nil {
							cr.failed.fail("serve: %s %s: %v", kind, id, err)
							continue
						}
						cr.lat = append(cr.lat, took)
						if kind == "step" {
							cr.steps++
							cr.selected += uint64(step.Progress.Selected)
							mine[k].steps += step.Performed
						}
					}
				}
				if !time.Now().Before(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	o.wall = time.Since(start)
	o.peakRSSMB = peakRSSMB()
	var steps int
	var selected uint64
	for _, cr := range results {
		o.attempted += cr.attempted
		o.lat = append(o.lat, cr.lat...)
		steps += cr.steps
		selected += cr.selected
		o.failed += cr.failed.failed
		o.errs = append(o.errs, cr.failed.errs...)
	}
	writes := d.st.Stats()
	if err := d.st.Err(); err != nil {
		o.fail("serve: store: %v", err)
	}

	// Output check: every session's best equals an in-process search on the
	// same DAG and seed stepped as many generations, across the recovery
	// boot (the serving bit-identity contract).
	bests, after, err := readEffort(ctx, c, sessions)
	if err != nil {
		return nil, err
	}
	if err := checkSessions(ctx, sessions, bests, o); err != nil {
		return nil, err
	}

	if tr != nil {
		st := newSpanStats(tr)
		stepHandlers := st.durations("handler.step")
		genes := float64(after.genes - before.genes)
		dw := float64(writes.Writes - writesBefore.Writes)
		boot := median(st.durations("serve.recover"))
		o.layers = map[string]float64{
			"core.selected_per_op":         ratio(float64(selected), float64(steps)),
			"schedule.genes_per_op":        ratio(genes, float64(steps)),
			"schedule.genes_per_eval":      ratio(genes, float64(after.evals-before.evals)),
			"schedule.genes_per_s":         ratio(genes, total(stepHandlers).Seconds()),
			"serve.handler_step_ms":        ms(median(stepHandlers)),
			"serve.handler_read_ms":        st.medianMS("handler.best", "handler.schedule"),
			"http.transport_ms":            ms(median(st.selfs("client.step", "client.best", "client.schedule"))),
			"serve.recover_ms_per_session": ms(boot) / float64(len(sessions)),
			"store.writes_per_mutation":    ratio(dw, float64(steps)),
			"store.bytes_per_write":        ratio(float64(writes.Bytes-writesBefore.Bytes), dw),
		}
	}
	return o, nil
}

// effort is a search's evaluation ledger as the served Result reports it.
type effort struct{ genes, evals uint64 }

// readEffort reads every session's best-so-far result and sums the effort
// their searches have spent.
func readEffort(ctx context.Context, c *serve.Client, sessions []serveSession) ([]serve.Result, effort, error) {
	bests := make([]serve.Result, len(sessions))
	var sum effort
	for i, s := range sessions {
		best, err := c.SearchBest(ctx, s.id)
		if err != nil {
			return nil, sum, fmt.Errorf("serve: reading %s: %w", s.id, err)
		}
		bests[i] = best
		sum.genes += best.GenesEvaluated
		sum.evals += best.Evaluations + best.DeltaEvaluations
	}
	return bests, sum, nil
}

// checkSessions compares each session's served best with an in-process
// search on the same DAG and seed stepped as many generations. A mismatch
// counts as a failed operation.
func checkSessions(ctx context.Context, sessions []serveSession, bests []serve.Result, o *outcome) error {
	for i, s := range sessions {
		w, err := workload.Generate(smallParams(s.seed))
		if err != nil {
			return err
		}
		ref, err := scheduler.Open("se", w.Graph, w.System, scheduler.WithSeed(s.seed))
		if err != nil {
			return err
		}
		for range s.steps {
			ref.Step(ctx)
		}
		want, got := ref.Best(), bests[i]
		if got.Iterations != want.Iterations || got.Makespan != want.Makespan || got.Solution != want.Best.Format() {
			o.fail("serve: session %s after %d generations: served makespan %v (%d iterations), offline %v (%d iterations)",
				s.id, s.steps, got.Makespan, got.Iterations, want.Makespan, want.Iterations)
		}
	}
	return nil
}
