package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"balancesort"
)

// countingListener counts every byte read from or written to the
// connections it accepts. Every cluster connection (coordinator to worker,
// worker to worker, heartbeats) is accepted by some worker's listener, so
// the sum over the workers' listeners is the cluster's wire volume.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, bytes: l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// workerSet is two in-process cluster workers on loopback, configured as
// `balancesort -join` runs them.
type workerSet struct {
	addrs  []string
	dirs   []string
	wire   atomic.Int64
	cancel context.CancelFunc
	wg     sync.WaitGroup
	errs   []error
}

const clusterWorkers = 2

// startWorkers starts the workers; obs, when non-nil, supplies each
// worker's shard-sort observability (traced runs only).
func startWorkers(r *run, obs func(i int) balancesort.ObsConfig) (*workerSet, error) {
	ctx, cancel := context.WithCancel(r.ctx)
	ws := &workerSet{cancel: cancel, errs: make([]error, clusterWorkers)}
	for i := 0; i < clusterWorkers; i++ {
		dir, err := r.dir(fmt.Sprintf("worker%d", i))
		if err != nil {
			ws.stop()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ws.stop()
			return nil, err
		}
		opt := balancesort.WorkerOptions{ScratchDir: dir, Sort: sortConfig()}
		if obs != nil {
			opt.Sort.Obs = obs(i)
		}
		ws.addrs = append(ws.addrs, ln.Addr().String())
		ws.dirs = append(ws.dirs, dir)
		ws.wg.Add(1)
		go func(i int) {
			defer ws.wg.Done()
			ws.errs[i] = balancesort.ServeWorker(ctx, countingListener{Listener: ln, bytes: &ws.wire}, opt)
		}(i)
	}
	return ws, nil
}

// stop shuts the workers down and waits for ServeWorker to return.
func (ws *workerSet) stop() error {
	ws.cancel()
	ws.wg.Wait()
	for i, err := range ws.errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return fmt.Errorf("worker %d: %w", i, err)
		}
	}
	return nil
}

// scratchFiles counts the regular files under the workers' scratch dirs.
func (ws *workerSet) scratchFiles() int {
	n := 0
	for _, d := range ws.dirs {
		_ = filepath.WalkDir(d, func(_ string, e fs.DirEntry, err error) error {
			if err == nil && e.Type().IsRegular() {
				n++
			}
			return nil
		})
	}
	return n
}

// releaseLimit bounds the wait for a worker to drop a finished job's
// scratch; past it the job counts as a leak.
const releaseLimit = 10 * time.Second

// awaitRelease waits until the workers' scratch is empty. A worker keeps
// its session and scratch for tens of milliseconds after ClusterSortFile
// returns, and refuses a new job as busy until then.
func (ws *workerSet) awaitRelease() (time.Duration, error) {
	t := time.Now()
	for ws.scratchFiles() > 0 {
		if time.Since(t) > releaseLimit {
			return time.Since(t), fmt.Errorf("worker scratch still holds %d files %v after the job", ws.scratchFiles(), releaseLimit)
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(t), nil
}

// clusterRecs is 4 Mi records (64 MiB), so each worker's shard is 64
// memoryloads.
const clusterRecs = 4 << 20

// warmupRecs is the untimed warm-up job of the set-up: it dials every
// connection once and lets the workers' planners see one shard.
const warmupRecs = 64 << 10

type clusterSort struct {
	res          *balancesort.ClusterResult // nil when the sort failed
	w            windowResult
	wireBytes    int64
	scratchBytes int64
	release      time.Duration
}

// clusterSortOnce runs one timed ClusterSortFile, waits for the workers
// to release the job, and verifies the output. Failures are counted and
// return a nil res.
func clusterSortOnce(r *run, ws *workerSet, inPath string, want digest, oc balancesort.ObsConfig) (clusterSort, error) {
	outPath := filepath.Join(r.root, "cluster-out.bin")
	smp := startDirSampler(10*time.Millisecond, func() map[string][]string {
		return map[string][]string{"workers": ws.dirs}
	})
	wire0 := ws.wire.Load()
	r.attempted++
	w := startWindow(&r.host)
	res, err := balancesort.ClusterSortFile(r.ctx, inPath, outPath, balancesort.ClusterConfig{Workers: ws.addrs, Obs: oc})
	out := clusterSort{w: w.end(), wireBytes: ws.wire.Load() - wire0}
	fmt.Fprintf(os.Stderr, "perfbench: ClusterSortFile %d: %.3fs wall, %.3fs cpu, %.2f MiB live heap\n", r.attempted, out.w.wall, out.w.cpu, out.w.heapPeakMB)
	var rerr error
	out.release, rerr = ws.awaitRelease()
	smp.end()
	out.scratchBytes = smp.peakOf("workers")
	if err != nil {
		r.fail("ClusterSortFile: %v", err)
		return out, rerr
	}
	if rerr != nil {
		r.fail("ClusterSortFile: %v", rerr)
		return out, rerr
	}
	if err := checkSortedFile(outPath, want); err != nil {
		r.fail("ClusterSortFile output: %v", err)
		return out, nil
	}
	out.res = res
	return out, os.Remove(outPath)
}

// runCluster2W: one ClusterSortFile of 4 Mi uniform records over two
// in-process workers — the only workload through the cluster's wire
// phases. Workers sort their shards through the file-backed engines the
// planner picks; no core distribution pass and no jobs code run here.
func runCluster2W(r *run) error {
	inPath := filepath.Join(r.root, "cluster-in.bin")
	warmPath := filepath.Join(r.root, "warmup-in.bin")
	var want digest
	var ws *workerSet
	writeInput := func(i int) error {
		recs := balancesort.NewWorkload(balancesort.Uniform, clusterRecs, inputSeed(r.seed, i))
		want = digestOf(recs)
		return balancesort.WriteRecordFile(inPath, recs)
	}
	setup := func() error {
		if err := writeInput(0); err != nil {
			return err
		}
		warm := balancesort.NewWorkload(balancesort.Uniform, warmupRecs, inputSeed(r.seed, -1))
		if err := balancesort.WriteRecordFile(warmPath, warm); err != nil {
			return err
		}
		var err error
		if ws, err = startWorkers(r, nil); err != nil {
			return err
		}
		return warmup(r, ws, warmPath, digestOf(warm))
	}
	teardown := func() {
		if err := ws.stop(); err != nil {
			r.fail("%v", err)
		}
	}
	if err := timedSetup(r, setup, teardown); err != nil {
		if ws != nil {
			ws.stop()
		}
		return err
	}
	inputBytes := float64(clusterRecs * balancesort.RecordSize)

	if r.trace {
		return cluster2WTraced(r, ws, inPath, want)
	}
	dropInputs()

	var sortS, cpuS, heap, scratch, ratio, wire []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < r.seconds; i++ {
		if r.ctx.Err() != nil {
			break
		}
		if i > 0 {
			// Each sort of a run sorts its own input (see runFileUniform).
			if err := writeInput(i); err != nil {
				ws.stop()
				return err
			}
			dropInputs()
		}
		s, err := clusterSortOnce(r, ws, inPath, want, balancesort.ObsConfig{})
		if err != nil {
			break
		}
		if s.res == nil {
			continue
		}
		sortS = append(sortS, s.w.wall)
		cpuS = append(cpuS, s.w.cpu)
		heap = append(heap, s.w.heapPeakMB)
		scratch = append(scratch, float64(s.scratchBytes)/inputBytes)
		ratio = append(ratio, exchangeRatio(s.res))
		wire = append(wire, float64(s.wireBytes)/inputBytes)
	}
	if err := ws.stop(); err != nil {
		return err
	}
	setOpMetrics(r, sortS)
	r.set("cpu_s", median(cpuS))
	r.set("heap_peak_mb", median(heap))
	r.set("scratch_per_input", median(scratch))
	r.set("model_io_ratio", median(ratio))
	r.set("wire_per_input", median(wire))
	return r.ctx.Err()
}

// warmup runs the set-up's small verified job and waits for its release.
func warmup(r *run, ws *workerSet, path string, want digest) error {
	out := filepath.Join(r.root, "warmup-out.bin")
	if _, err := balancesort.ClusterSortFile(r.ctx, path, out, balancesort.ClusterConfig{Workers: ws.addrs}); err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	if _, err := ws.awaitRelease(); err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	if err := checkSortedFile(out, want); err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	return os.Remove(out)
}

// exchangeRatio is the cluster's parallel-I/O measure over its bound: the
// busiest worker's received exchange blocks over a perfectly even share.
// The exchange's time is set by its busiest receiver, and the balancer's
// Invariant 2 is what keeps this near 1.
func exchangeRatio(res *balancesort.ClusterResult) float64 {
	most := 0
	for _, b := range res.RecvBlocks {
		most = max(most, b)
	}
	if res.ExchangeBlocks == 0 {
		return 1
	}
	return float64(most) * float64(len(res.RecvBlocks)) / float64(res.ExchangeBlocks)
}

// coordTraceCapacity is the coordinator's span ring in the traced run:
// room for its own spans and the workers' shipped ones, a few hundred.
const coordTraceCapacity = 4096

// coordPhases maps the coordinator's phase spans to metric names.
var coordPhases = map[string]string{
	"scatter":         "cluster.scatter_s",
	"histogram-merge": "cluster.histogram_merge_s",
	"plan":            "cluster.plan_s",
	"exchange":        "cluster.exchange_s",
	"gather":          "cluster.gather_s",
	"local-sort":      "cluster.local_sort_s",
	"drain":           "cluster.drain_s",
}

// wirePhases are the phases whose wire bytes are reported.
var wirePhases = map[string]string{
	"scatter":  "cluster.scatter_wire_mb",
	"exchange": "cluster.exchange_wire_mb",
	"gather":   "cluster.gather_wire_mb",
	"drain":    "cluster.drain_wire_mb",
}

// sortOnFreshWorkers starts a worker set, runs one sort on it and stops it.
func sortOnFreshWorkers(r *run, inPath string, want digest, workerObs func(int) balancesort.ObsConfig, coordObs func(*workerSet) balancesort.ObsConfig) (clusterSort, error) {
	ws, err := startWorkers(r, workerObs)
	if err != nil {
		return clusterSort{}, err
	}
	var oc balancesort.ObsConfig
	if coordObs != nil {
		oc = coordObs(ws)
	}
	s, err := clusterSortOnce(r, ws, inPath, want, oc)
	return s, errAll(err, ws.stop())
}

// cluster2WTraced produces cluster-2w's per-layer metrics: an untraced
// sort (the runtime counters), a traced sort on workers whose shard sorts
// are observed too, a second untraced sort on fresh workers (with the
// first, the baseline of the trace overhead), and the layer probes.
func cluster2WTraced(r *run, ws *workerSet, inPath string, want digest) error {
	recs := balancesort.NewWorkload(balancesort.Uniform, clusterRecs, inputSeed(r.seed, 0))
	if err := probeRecord(r, recs); err != nil {
		ws.stop()
		return err
	}
	recs = nil
	dropInputs()

	plain, err := clusterSortOnce(r, ws, inPath, want, balancesort.ObsConfig{})
	if err = errAll(err, ws.stop()); err != nil || plain.res == nil {
		return err
	}
	setRuntimeLayers(r, plain.w)

	shardAggs := make([]*spanAgg, clusterWorkers)
	coord := newSpanAgg()
	ts, err := sortOnFreshWorkers(r, inPath, want, func(i int) balancesort.ObsConfig {
		shardAggs[i] = newSpanAgg()
		return sortTraceObs(shardAggs[i])
	}, func(traced *workerSet) balancesort.ObsConfig {
		// Wire bytes per phase: the listener counters at the coordinator's
		// phase boundaries.
		var mu sync.Mutex
		wireAt := map[string]int64{}
		coord.onStart = func(layer, name string) {
			if layer == "cluster" {
				mu.Lock()
				wireAt[name] = traced.wire.Load()
				mu.Unlock()
			}
		}
		coord.onEnd = func(s balancesort.Span) {
			if m, ok := wirePhases[s.Name]; ok && s.Layer == "cluster" {
				mu.Lock()
				r.metrics[m] += float64(traced.wire.Load()-wireAt[s.Name]) / (1 << 20)
				mu.Unlock()
			}
		}
		// The workers' phase spans reach the coordinator only through its
		// ring, which has room for all of them.
		return balancesort.ObsConfig{Observer: coord, Trace: true, SpanCapacity: coordTraceCapacity}
	})
	if err != nil || ts.res == nil {
		return err
	}
	plain2, err := sortOnFreshWorkers(r, inPath, want, nil, nil)
	if err != nil || plain2.res == nil {
		return err
	}

	for phase, m := range coordPhases {
		_, s := coord.total("cluster", phase)
		r.set(m, s)
	}
	res := ts.res
	most, sum := 0, 0
	for _, g := range res.GatherRecords {
		most = max(most, g)
		sum += g
	}
	r.set("cluster.shard_imbalance", float64(most)*float64(len(res.GatherRecords))/float64(sum))
	r.set("cluster.exchange_blocks", float64(res.ExchangeBlocks))
	var shardSort float64
	var local int64
	for _, s := range res.Trace.Spans() {
		if s.Node > 0 && s.Layer == "cluster" && s.Name == "shard-sort" {
			shardSort = max(shardSort, s.Dur.Seconds())
		}
		if s.Node == 0 && s.Flow == 0 && s.Layer != "counter" {
			local++
		}
	}
	r.set("cluster.worker_shard_sort_s", shardSort)
	r.set("cluster.release_ms", 1000*median([]float64{
		plain.release.Seconds(), ts.release.Seconds(), plain2.release.Seconds(),
	}))
	r.set("obs.spans_dropped", float64(res.Trace.Dropped()))
	if res.Trace.Dropped() != 0 || local != coord.count() {
		r.fail("trace: the coordinator ring dropped %d spans and holds %d of its own, the observer saw %d",
			res.Trace.Dropped(), local, coord.count())
	}
	r.set("obs.trace_overhead", traceOverhead(ts.w.wall, plain.w.wall, plain2.w.wall))

	// The workers' shard sorts, seen through their own Observers.
	baseN, baseSum := int64(0), int64(0)
	for _, a := range shardAggs {
		for metric, phase := range map[string]string{
			"core.run_formation_s":     "run-formation",
			"core.distribute_tracks_s": "distribute-tracks",
			"core.partition_s":         "partition-elements",
			"core.base_case_s":         "base-case",
		} {
			r.metrics[metric] += a.self("sort", phase)
		}
		n, s := a.total("sort", "repair-rearrange")
		r.metrics["balance.repairs"] += float64(n)
		r.metrics["balance.repair_s"] += s
		_, s = a.total("disk", "flush")
		r.metrics["diskio.flush_s"] += s
		n, _ = a.total("sort", "base-case")
		baseN += n
		baseSum += a.attrTotal("sort", "base-case", "n")
	}
	memload := geometry.M / 2
	if baseN > 0 {
		memload = int(baseSum / baseN)
	}
	if err := probePram(r, memload); err != nil {
		return err
	}
	return probeStripes(r)
}
