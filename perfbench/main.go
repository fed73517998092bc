// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three single-process workloads, checks the program's outputs and
// prints the metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload search --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics (endToEnd). --trace 1 runs the
// workload twice, untraced and then traced, and reports the per-layer
// metrics (layerMetrics) derived from spans the benchmark records around
// its own calls into each package; the program itself carries no tracing.
// The line before the result holds the host record and the details behind
// each number.
//
// Every input is generated from --seed. Each workload repeats a fixed
// cycle until --seconds have passed and finishes the cycle in progress, so
// the mix of measured operations does not depend on how fast the code is.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// procs pins GOMAXPROCS: the workloads are sized for a 2-core host, and
// before Go 1.25 the runtime ignores a container's CPU quota.
const procs = 2

// setupRepeats is how often the serve and churn workloads repeat their
// set-up; setup_s is the median. The search workload sets up each of its
// DAGs once.
const setupRepeats = 15

//go:embed golden.json
var goldenJSON []byte

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	golden   []byte
	// dir holds the run's stores and the span files.
	dir string
}

// outcome is what one pass of a workload measured.
type outcome struct {
	setup     []time.Duration
	lat       []time.Duration // successful operations only
	wall      time.Duration   // the measured phase
	attempted int
	failed    int
	peakRSSMB float64
	errs      []string
	// layers holds the per-layer metrics; only traced passes fill it.
	layers map[string]float64
}

// fail counts one failed operation and keeps its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 20 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) opsPerSec() float64 {
	return ratio(float64(len(o.lat)), o.wall.Seconds())
}

type workloadFunc func(cfg config, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"search": runSearch,
	"serve":  runServe,
	"churn":  runChurn,
}

// endToEnd lists the metrics every workload reports with --trace 0.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
}

// layerMetric is one per-layer number and the end-to-end metric, on the
// named workload, that it is expected to move. A workload that never calls
// a layer reports 0 for it.
type layerMetric struct{ name, unit, better, moves string }

var layerMetrics = []layerMetric{
	{"workload.generate_ms", "ms", "lower", "setup_s on search"},
	{"scheduler.open_ms", "ms", "lower", "setup_s on search"},
	{"scheduler.step_ms", "ms", "lower", "op_p50_ms and ops_per_s on search"},
	{"core.selected_per_op", "count", "lower", "none: exact, so any change means SE behaviour changed"},
	{"schedule.genes_per_op", "count", "lower", "ops_per_s on search (exact)"},
	{"schedule.genes_per_eval", "count", "lower", "ops_per_s on search"},
	{"schedule.genes_per_s", "1/s", "higher", "ops_per_s on search; stays small on serve"},
	{"serve.handler_step_ms", "ms", "lower", "op_p50_ms on serve and churn"},
	{"serve.handler_read_ms", "ms", "lower", "op_p50_ms on serve"},
	{"serve.handler_event_ms", "ms", "lower", "op_p50_ms on churn"},
	{"http.transport_ms", "ms", "lower", "op_p50_ms on serve"},
	{"serve.recover_ms_per_session", "ms", "lower", "setup_s on serve"},
	{"store.writes_per_mutation", "count", "lower", "ops_per_s and op_tail_ms on serve and churn"},
	{"store.bytes_per_write", "bytes", "lower", "ops_per_s and op_tail_ms on serve and churn"},
	{"live.amend_ms", "ms", "lower", "op_p50_ms on churn; no move on search or serve"},
	{"trace.overhead_ops_per_s", "1/s", "lower", "none: untraced minus traced ops_per_s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host identifies where a result was measured, so host noise can be told
// from a regression.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(min(procs, runtime.NumCPU()))
	res, detail, err := measure(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(detail); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: search, serve or churn")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if _, ok := workloads[*name]; !ok {
		return config{}, fmt.Errorf("unknown workload %q (have search, serve, churn)", *name)
	}
	if *seconds < 1 {
		return config{}, fmt.Errorf("--seconds %d, want >= 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("--trace %d, want 0 or 1", *trace)
	}
	return config{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		golden:   goldenJSON,
		dir:      ".bench_build",
	}, nil
}

// measure runs the workload once untraced and, with --trace 1, once more
// traced, and assembles the result line and the detail line before it.
func measure(cfg config) (result, map[string]any, error) {
	wl := workloads[cfg.workload]
	base, err := wl(cfg, nil)
	if err != nil {
		return result{}, nil, err
	}
	passes := []*outcome{base}
	metrics := map[string]metric{}
	detail := map[string]any{
		"host":     hostRecord(cfg.seed),
		"workload": cfg.workload,
		"seconds":  cfg.seconds.Seconds(),
	}
	if !cfg.trace {
		sorted := slices.Clone(base.lat)
		slices.Sort(sorted)
		var p50, tv time.Duration
		var pct float64
		var beyond int
		if len(sorted) > 0 {
			p50 = percentile(sorted, 50_000)
			pct, tv, beyond = tail(sorted)
		}
		vals := map[string]float64{
			"setup_s":     median(base.setup).Seconds(),
			"peak_rss_mb": base.peakRSSMB,
			"ops_per_s":   base.opsPerSec(),
			"op_p50_ms":   ms(p50),
			"op_tail_ms":  ms(tv),
		}
		for _, m := range endToEnd {
			metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		}
		detail["samples"] = len(sorted)
		detail["tail_percentile"] = pct
		detail["tail_samples_beyond"] = beyond
		detail["setup_samples"] = len(base.setup)
	} else {
		tr := newTracer()
		traced, err := wl(cfg, tr)
		if err != nil {
			return result{}, nil, err
		}
		passes = append(passes, traced)
		traced.layers["trace.overhead_ops_per_s"] = base.opsPerSec() - traced.opsPerSec()
		moves := map[string]string{}
		for _, m := range layerMetrics {
			metrics[m.name] = metric{Value: traced.layers[m.name], Unit: m.unit}
			moves[m.name] = m.moves
		}
		path := filepath.Join(cfg.dir, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, tr); err != nil {
			return result{}, nil, err
		}
		detail["spans_file"] = path
		detail["spans"] = len(tr.spans)
		detail["moves"] = moves
		detail["untraced_ops_per_s"] = base.opsPerSec()
		detail["traced_ops_per_s"] = traced.opsPerSec()
	}
	detail["cpu_user_s"], detail["cpu_sys_s"] = cpuSeconds()
	res := result{Metrics: metrics}
	var errs []string
	for _, o := range passes {
		res.Attempted += o.attempted
		res.Failed += min(o.failed, o.attempted)
		errs = append(errs, o.errs...)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if len(errs) > 0 {
		detail["errors"] = errs
	}
	return res, detail, nil
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds reads the user and system CPU time the process has used, so
// a slow run can be told apart from a starved one.
func cpuSeconds() (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()).Seconds(), time.Duration(ru.Stime.Nano()).Seconds()
}

func hostRecord(seed int64) host {
	h := host{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     "unknown",
		Seed:       seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		h.Kernel = string(b)
	}
	return h
}

// golden is the expected final schedule of every instance of each checked
// workload on the default seed. Solutions are kept as SHA-256 digests of
// their schedule.Parse text.
type golden struct {
	Seed   int64         `json:"seed"`
	Search []goldenEntry `json:"search"`
	Churn  []goldenEntry `json:"churn"`
}

type goldenEntry struct {
	Makespan float64 `json:"makespan"`
	Solution string  `json:"solution_sha256"`
}

func entry(makespan float64, solution string) goldenEntry {
	sum := sha256.Sum256([]byte(solution))
	return goldenEntry{Makespan: makespan, Solution: hex.EncodeToString(sum[:])}
}

func parseGolden(b []byte) (golden, error) {
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return g, fmt.Errorf("golden: %w", err)
	}
	if len(g.Search) != searchDAGs || len(g.Churn) != churnTraces {
		return g, fmt.Errorf("golden: %d search and %d churn entries, want %d and %d",
			len(g.Search), len(g.Churn), searchDAGs, churnTraces)
	}
	return g, nil
}

// sameEntries reports the first instance whose final schedule differs.
func sameEntries(want, got []goldenEntry) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("instance %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// checkGolden compares the final schedules of a cycle with the golden
// entries when seed is the golden's seed; other seeds have no golden.
func checkGolden(g golden, seed int64, want, got []goldenEntry) error {
	if seed != g.Seed {
		return nil
	}
	if err := sameEntries(want, got); err != nil {
		return fmt.Errorf("golden mismatch on seed %d: %w", seed, err)
	}
	return nil
}
