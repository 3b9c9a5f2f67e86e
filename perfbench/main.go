// Command perfbench is the repository's benchmark. It drives one of three
// workloads in-process through a public entry point — SortFile,
// ClusterSortFile over ServeWorker, or the jobs.Server HTTP API — verifies
// every output, and prints the workload's metrics as one JSON line:
//
//	bash perfbench/run.sh --workload file-uniform --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics, measured with
// tracing off; with --trace 1 it carries the per-layer metrics, from a
// separate traced run plus outside probes of single layers. README.md in
// this directory explains the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// run is the state one workload fills in.
type run struct {
	ctx     context.Context
	seed    uint64
	seconds time.Duration
	trace   bool
	root    string // scratch root; every file the run writes lives under it

	attempted int
	failures  []string
	metrics   map[string]float64
	host      hostLabels
}

// fail records a failed operation or check; it counts against the run.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	fmt.Fprintln(os.Stderr, "perfbench: FAILED:", msg)
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// dir makes (and returns) a fresh directory under the scratch root.
func (r *run) dir(parts ...string) (string, error) {
	d := filepath.Join(append([]string{r.root}, parts...)...)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

var workloads = map[string]func(*run) error{
	"file-uniform": runFileUniform,
	"cluster-2w":   runCluster2W,
	"serve-mixed":  runServeMixed,
}

// deadline bounds a whole run, so a hung sort fails the run instead of
// outliving the caller's time limit.
const deadline = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "file-uniform | cluster-2w | serve-mixed")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 20, "length of the timed section in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		scratch  = flag.String("scratch", "", "scratch root (removed at exit); default .bench_build/scratch-<pid>")
	)
	flag.Parse()
	os.Exit(mainErr(*workload, *seed, *seconds, *trace, *scratch))
}

func mainErr(workload string, seed uint64, seconds, trace int, scratch string) int {
	fn := workloads[workload]
	if fn == nil || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload file-uniform|cluster-2w|serve-mixed --seed N --seconds S --trace 0|1 (got %q, %d, %d)\n",
			workload, seconds, trace)
		return 2
	}
	if scratch == "" {
		scratch = filepath.Join(".bench_build", fmt.Sprintf("scratch-%d", os.Getpid()))
	}
	root, err := filepath.Abs(scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(root)

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	r := &run{
		ctx: ctx, seed: seed, seconds: time.Duration(seconds) * time.Second,
		trace: trace == 1, root: root, metrics: map[string]float64{},
	}
	r.host = newHostLabels(root)
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", workload, err)
		return 1
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", workload, ctx.Err())
		return 1
	}

	names := endToEnd
	if r.trace {
		names = perLayer
	}
	out := result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    len(r.failures),
		Metrics:   map[string]metricValue{},
	}
	for _, m := range names {
		v, ok := r.metrics[m.Name]
		if !ok && !r.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s: end-to-end metric %s was not measured\n", workload, m.Name)
			return 1
		}
		// A per-layer metric a workload does not reach stays 0: the
		// workload bypasses that layer (README.md lists which).
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if out.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation ran\n", workload)
		return 1
	}
	printLabels(workload, seed, r)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printLabels prints the host labels and, for a reader, every metric the
// run measured, ahead of the result line.
func printLabels(workload string, seed uint64, r *run) {
	// Strings, numbers and a struct of them: Marshal cannot fail.
	labels, _ := json.Marshal(map[string]any{"workload": workload, "seed": seed, "trace": r.trace, "host": r.host})
	fmt.Println(string(labels))
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %.6g\n", n, r.metrics[n])
	}
}
