package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"balancesort"
	"balancesort/internal/core"
	"balancesort/internal/jobs"
)

// serve-mixed's traffic (see serveLoad).
const (
	roundJobs      = 4 // 1 large + 3 small
	serveMinJobs   = 100
	smallRecs      = 16 << 10  // fits in M
	largeRecs      = 256 << 10 // 8 memoryloads
	smallInputs    = 6         // distinct inputs of each size, cycled
	largeInputs    = 8
	statusPollWait = 2 * time.Millisecond
)

// The tenants and their fair-queueing weights, 1:2:1: two interactive
// tenants submit the small jobs, a batch tenant the large ones.
var (
	interactiveTenants = []string{"t1", "t2"}
	batchTenant        = "t3"
	tenantWeights      = map[string]int{"t1": 1, "t2": 2, "t3": 1}
)

type jobInput struct {
	large bool
	path  string // the record file uploaded
	size  int64
	want  digest
}

// jobOutcome is one completed job as its client saw it.
type jobOutcome struct {
	large                bool
	latency, wait, run   time.Duration
	ios, passes, records int
	scratchPeak          int64
}

// routeTimer wraps the server's handler to time each API route from
// outside and count capacity refusals.
type routeTimer struct {
	next    http.Handler
	mu      sync.Mutex
	times   map[string][]float64
	refused int
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (t *routeTimer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	route := "other"
	switch {
	case req.Method == http.MethodPost && req.URL.Path == "/v1/jobs":
		route = "submit"
	case req.Method == http.MethodGet && strings.HasSuffix(req.URL.Path, "/output"):
		route = "output"
	case req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/v1/jobs/"):
		route = "status"
	case req.Method == http.MethodDelete:
		route = "delete"
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	t.next.ServeHTTP(sw, req)
	d := time.Since(start).Seconds()
	t.mu.Lock()
	t.times[route] = append(t.times[route], d)
	switch sw.code {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusInsufficientStorage:
		t.refused++
	}
	t.mu.Unlock()
}

func (t *routeTimer) reset() {
	t.mu.Lock()
	t.times = map[string][]float64{}
	t.refused = 0
	t.mu.Unlock()
}

// jobServer is an in-process jobs.Server behind a byte-counting loopback
// HTTP listener, configured as `balancesort -serve` runs it.
type jobServer struct {
	srv     *jobs.Server
	http    *http.Server
	served  chan error
	url     string
	dataDir string
	timer   *routeTimer
	wire    atomic.Int64
	client  *http.Client
	logged  atomic.Int64 // operational log lines, each one an error the server hit
}

func startJobServer(r *run) (*jobServer, error) {
	dataDir, err := r.dir("serve-data")
	if err != nil {
		return nil, err
	}
	js := &jobServer{
		served: make(chan error, 1), dataDir: dataDir,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * roundJobs}},
	}
	srv, err := jobs.New(jobs.Options{
		DataDir:       dataDir,
		Workers:       2,
		Budget:        jobs.Budget{MemoryBytes: 1 << 30, DiskBytes: 16 << 30},
		TenantWeights: tenantWeights,
		Sort:          sortConfig(),
		Logf: func(format string, args ...any) {
			js.logged.Add(1)
			fmt.Fprintf(os.Stderr, "perfbench: job server: "+format+"\n", args...)
		},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	js.srv, js.url = srv, "http://"+ln.Addr().String()
	js.timer = &routeTimer{next: srv.Handler(), times: map[string][]float64{}}
	js.http = &http.Server{Handler: js.timer}
	go func() { js.served <- js.http.Serve(countingListener{Listener: ln, bytes: &js.wire}) }()
	return js, nil
}

// stop drains the job server and shuts its HTTP side down, waiting for
// both.
func (js *jobServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := js.srv.Drain(ctx)
	herr := js.http.Shutdown(ctx)
	<-js.served
	js.client.CloseIdleConnections()
	return errAll(derr, herr)
}

func (js *jobServer) do(method, path, tenant string, body io.Reader, size int64) (*http.Response, error) {
	req, err := http.NewRequest(method, js.url+path, body)
	if err != nil {
		return nil, err
	}
	req.ContentLength = size
	req.Header.Set("X-Tenant", tenant)
	return js.client.Do(req)
}

// runJob submits one upload job, polls it to a terminal state, fetches and
// verifies its output and deletes it. Any refusal, failure or bad output
// is an error: nothing is retried.
func (js *jobServer) runJob(ctx context.Context, in jobInput, tenant string, scratchPeak func(id string) int64) (jobOutcome, error) {
	out := jobOutcome{large: in.large}
	start := time.Now()
	q := fmt.Sprintf("/v1/jobs?disks=%d&block=%d&memory=%d", geometry.D, geometry.B, geometry.M)
	f, err := os.Open(in.path)
	if err != nil {
		return out, err
	}
	defer f.Close() // the transport closes it too; a second Close is harmless
	resp, err := js.do(http.MethodPost, q, tenant, f, in.size)
	if err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	var st jobs.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || err != nil {
		return out, fmt.Errorf("submit: HTTP %d (%v)", resp.StatusCode, err)
	}
	submitted := time.Now()
	var running time.Time
	for st.State != jobs.StateDone {
		switch st.State {
		case jobs.StateFailed, jobs.StateCanceled:
			return out, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		time.Sleep(statusPollWait)
		resp, err := js.do(http.MethodGet, "/v1/jobs/"+st.ID, tenant, nil, 0)
		if err != nil {
			return out, fmt.Errorf("status: %w", err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			return out, fmt.Errorf("status: HTTP %d (%v)", resp.StatusCode, err)
		}
		if running.IsZero() && st.State != jobs.StateQueued {
			running = time.Now()
		}
	}
	done := time.Now()
	if running.IsZero() {
		running = done
	}
	out.latency, out.wait, out.run = done.Sub(start), running.Sub(submitted), done.Sub(running)
	out.ios, out.passes, out.records = int(st.IOs), st.SortPasses, st.Records
	if scratchPeak != nil {
		out.scratchPeak = scratchPeak(st.ID)
	}

	resp, err = js.do(http.MethodGet, "/v1/jobs/"+st.ID+"/output", tenant, nil, 0)
	if err != nil {
		return out, fmt.Errorf("output: %w", err)
	}
	cerr := checkSorted(resp.Body, in.want)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("output of job %s: HTTP %d", st.ID, resp.StatusCode)
	}
	if cerr != nil {
		return out, fmt.Errorf("output of job %s: %w", st.ID, cerr)
	}
	resp, err = js.do(http.MethodDelete, "/v1/jobs/"+st.ID, tenant, nil, 0)
	if err != nil {
		return out, fmt.Errorf("delete: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return out, fmt.Errorf("delete job %s: HTTP %d", st.ID, resp.StatusCode)
	}
	return out, nil
}

// jobInputs generates serve-mixed's inputs from the seed and writes them
// under the scratch root; uploads stream from the files, so the benchmark
// holds no input in its heap.
func jobInputs(r *run) (small, large []jobInput, err error) {
	dir, err := r.dir("job-inputs")
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < smallInputs+largeInputs; i++ {
		in := jobInput{path: filepath.Join(dir, fmt.Sprintf("in%d.bin", i)), large: i >= smallInputs}
		w, n := balancesort.Uniform, smallRecs
		if in.large {
			w, n = balancesort.Zipf, largeRecs
		}
		recs := balancesort.NewWorkload(w, n, inputSeed(r.seed, i))
		in.want, in.size = digestOf(recs), int64(n*balancesort.RecordSize)
		if err := balancesort.WriteRecordFile(in.path, recs); err != nil {
			return nil, nil, err
		}
		if in.large {
			large = append(large, in)
		} else {
			small = append(small, in)
		}
	}
	return small, large, nil
}

// runServeMixed: an in-process job server loaded closed-loop with a 3:1
// mix of small uniform jobs (fit in M) and large zipf jobs (8× M) — the
// only workload through jobs: upload spooling, manifests, admission,
// weighted fair queueing and fsync'd per-pass journal commits. The timed
// section lasts --seconds and at least serveMinJobs jobs.
func runServeMixed(r *run) error {
	var small, large []jobInput
	var js *jobServer
	setup := func() error {
		var err error
		if small, large, err = jobInputs(r); err != nil {
			return err
		}
		if js, err = startJobServer(r); err != nil {
			return err
		}
		// The verified warm-up job.
		if _, err := js.runJob(r.ctx, small[0], interactiveTenants[0], nil); err != nil {
			return fmt.Errorf("warm-up job: %w", err)
		}
		return nil
	}
	teardown := func() {
		if err := js.stop(); err != nil {
			r.fail("job server stop: %v", err)
		}
	}
	if err := timedSetup(r, setup, teardown); err != nil {
		if js != nil {
			js.stop()
		}
		return err
	}
	dropInputs()

	outcomes, w, wireBytes, inputBytes := serveLoad(r, js, small, large)
	if err := js.stop(); err != nil {
		return err
	}
	// The counts are summed over the large jobs, so they cover every large
	// input of the run.
	var lat, largeLat []float64
	var ios, lowerBound float64
	var scratchBytes, largeBytes int64
	for _, o := range outcomes {
		lat = append(lat, o.latency.Seconds())
		if !o.large {
			continue
		}
		largeLat = append(largeLat, o.latency.Seconds())
		ios += float64(o.ios)
		lowerBound += core.LowerBoundIOs(o.records, geometry)
		scratchBytes += o.scratchPeak
		largeBytes += int64(o.records * balancesort.RecordSize)
	}
	if len(largeLat) == 0 {
		return fmt.Errorf("no large job completed")
	}
	r.set("sort_s", median(largeLat))
	r.set("job_p50_s", median(lat))
	r.set("job_p90_s", quantile(lat, 0.9))
	r.set("jobs_per_s", float64(len(outcomes))/w.wall)
	r.set("cpu_s", w.cpu/float64(len(outcomes)))
	r.set("heap_peak_mb", w.heapPeakMB)
	r.set("scratch_per_input", float64(scratchBytes)/float64(largeBytes))
	r.set("model_io_ratio", ios/lowerBound)
	r.set("wire_per_input", float64(wireBytes)/float64(inputBytes))

	if r.trace {
		setJobsLayers(r, js, outcomes)
		setRuntimeLayers(r, w)
		return serveMixedProbes(r, small, large)
	}
	return nil
}

// serveLoad runs the timed section in rounds: each round submits one
// large job from the batch tenant and three small ones from the two
// interactive tenants at once — two clients with two uploads in flight
// each, four jobs for two run slots, in the order WFQ picks — and the next
// round starts when all four are done. One large job per round keeps the
// latency of each job class unimodal: with large jobs free to take both
// slots, a small job either ran at once or waited out a large job, and the
// median fell between the two from run to run. It returns the completed
// jobs, the section's window, and the HTTP bytes and input bytes it moved.
func serveLoad(r *run, js *jobServer, small, large []jobInput) ([]jobOutcome, windowResult, int64, int64) {
	jobsDir := filepath.Join(js.dataDir, "jobs")
	smp := startDirSampler(10*time.Millisecond, func() map[string][]string {
		m := map[string][]string{}
		ents, _ := os.ReadDir(jobsDir)
		for _, e := range ents {
			m[e.Name()] = []string{filepath.Join(jobsDir, e.Name(), "scratch")}
		}
		return m
	})
	defer smp.end()
	js.timer.reset()

	var (
		mu         sync.Mutex
		outcomes   []jobOutcome
		inputBytes int64
	)
	wire0 := js.wire.Load()
	w := startWindow(&r.host)
	start := time.Now()
	for round := 0; r.ctx.Err() == nil && (time.Since(start) < r.seconds || r.attempted < serveMinJobs); round++ {
		var wg sync.WaitGroup
		for j := 0; j < roundJobs; j++ {
			in, tenant := large[round%len(large)], batchTenant
			if j > 0 {
				i := round*(roundJobs-1) + j - 1
				in, tenant = small[i%len(small)], interactiveTenants[i%len(interactiveTenants)]
			}
			r.attempted++
			inputBytes += in.size
			wg.Add(1)
			go func() {
				defer wg.Done()
				o, err := js.runJob(r.ctx, in, tenant, smp.peakOf)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					r.fail("round %d: %v", round, err)
					return
				}
				outcomes = append(outcomes, o)
			}()
		}
		wg.Wait()
	}
	res := w.end()
	return outcomes, res, js.wire.Load() - wire0, inputBytes
}

// setJobsLayers sets the jobs layer's metrics from the route timer and the
// polled job states.
func setJobsLayers(r *run, js *jobServer, outcomes []jobOutcome) {
	js.timer.mu.Lock()
	r.set("jobs.submit_s", median(js.timer.times["submit"]))
	r.set("jobs.status_s", median(js.timer.times["status"]))
	r.set("jobs.refused", float64(js.timer.refused))
	js.timer.mu.Unlock()
	r.set("jobs.server_log_lines", float64(js.logged.Load()))
	var wait, runSmall, runLarge []float64
	commits := 0
	for _, o := range outcomes {
		wait = append(wait, o.wait.Seconds())
		if o.large {
			runLarge = append(runLarge, o.run.Seconds())
		} else {
			runSmall = append(runSmall, o.run.Seconds())
		}
		commits += o.passes
	}
	r.set("jobs.queue_wait_s", median(wait))
	r.set("jobs.run_small_s", median(runSmall))
	r.set("jobs.run_large_s", median(runLarge))
	r.set("jobs.journal_commits", float64(commits))
	r.set("jobs.latency_samples", float64(len(outcomes)))
}

// serveMixedProbes produces the sort-layer metrics of serve-mixed, whose
// sorts run inside the server where no Observer reaches: one large job's
// input sorted with the server's job configuration (journal on), once
// untraced and once traced, plus the layer probes over the job inputs.
func serveMixedProbes(r *run, small, large []jobInput) error {
	var all []balancesort.Record
	for _, in := range append(append([]jobInput(nil), small...), large...) {
		recs, err := balancesort.ReadRecordFile(in.path)
		if err != nil {
			return err
		}
		all = append(all, recs...)
	}
	if err := probeRecord(r, all); err != nil {
		return err
	}
	recs, err := balancesort.ReadRecordFile(large[0].path)
	if err != nil {
		return err
	}
	if err := probeInMem(r, recs); err != nil {
		return err
	}
	inPath, inputBytes := large[0].path, large[0].size
	jobSort := func(oc balancesort.ObsConfig) (*balancesort.Result, float64, error) {
		scratch, err := r.dir("job-scratch")
		if err != nil {
			return nil, 0, err
		}
		outPath := filepath.Join(r.root, "large-out.bin")
		cfg := sortConfig()
		cfg.Robust.Journal = true
		cfg.Obs = oc
		r.attempted++
		t := time.Now()
		res, err := balancesort.SortFile(inPath, outPath, scratch, cfg)
		wall := time.Since(t).Seconds()
		if err != nil {
			r.fail("job-config SortFile: %v", err)
			return nil, wall, nil
		}
		if err := checkSortedFile(outPath, large[0].want); err != nil {
			r.fail("job-config SortFile output: %v", err)
			return nil, wall, nil
		}
		return res, wall, errAll(os.Remove(outPath), os.RemoveAll(scratch))
	}
	_, plain, err := jobSort(balancesort.ObsConfig{})
	if err != nil {
		return err
	}
	agg := newSpanAgg()
	res, traced, err := jobSort(sortTraceObs(agg))
	if err != nil || res == nil {
		return err
	}
	setResultLayers(r, res, agg, inputBytes)
	checkTrace(r, res.Trace, agg, traced)
	_, plain2, err := jobSort(balancesort.ObsConfig{})
	if err != nil {
		return err
	}
	r.set("obs.trace_overhead", traceOverhead(traced, plain, plain2))
	if err := probePram(r, meanBaseCase(agg, geometry.M/2)); err != nil {
		return err
	}
	return probeStripes(r)
}
