package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"balancesort"
	"balancesort/internal/core"
	"balancesort/internal/pdm"
)

// geometry is the model geometry of every sort here: D=8 disks of B=64
// records and M=32768 records of memory, the BENCH_sort.json standard.
var geometry = pdm.Params{D: 8, B: 64, M: 32768}

// sortConfig is the file-sort configuration the CLI deploys at that
// geometry: the concurrent I/O engine on, checksums on, no journal, and
// the CLI's default program seed.
func sortConfig() balancesort.Config {
	return balancesort.Config{
		Disks: geometry.D, BlockSize: geometry.B, Memory: geometry.M, Processors: 1, Seed: 42,
		IO: balancesort.IOConfig{Engine: true, FaultSeed: 42},
	}
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median. Only the last set-up is kept for the timed section.
const setupReps = 5

// timedSetup runs setup setupReps times and sets setup_s to the median
// wall time; teardown runs between repetitions.
func timedSetup(r *run, setup func() error, teardown func()) error {
	var ts []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			teardown()
		}
		t := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(t).Seconds())
	}
	r.set("setup_s", median(ts))
	return nil
}

// dropInputs releases the benchmark's own input slices before a timed
// section, so heap_peak_mb measures the program.
func dropInputs() {
	runtime.GC()
	runtime.GC()
}

// fileUniformRecs is 1 Mi records: 16 MiB, 32 memoryloads.
const fileUniformRecs = 1 << 20

// runFileUniform: one cold SortFile of 1 Mi uniform records with the
// default Balance Sort engine — the library and CLI entry point, running
// the paper's algorithm out of core through pdm and diskio. It touches no
// wire and no jobs code. The timed section repeats the sort (each one cold,
// on fresh scratch) until --seconds have passed, and reports medians.
func runFileUniform(r *run) error {
	inPath := filepath.Join(r.root, "input.bin")
	var want digest
	// writeInput writes the input of the run's i-th sort. Each sort of a run
	// sorts its own input, so a run's medians average over inputs as well
	// as over the host's noise.
	writeInput := func(i int) error {
		recs := balancesort.NewWorkload(balancesort.Uniform, fileUniformRecs, inputSeed(r.seed, i))
		want = digestOf(recs)
		return balancesort.WriteRecordFile(inPath, recs)
	}
	if err := timedSetup(r, func() error { return writeInput(0) }, func() { os.Remove(inPath) }); err != nil {
		return err
	}
	inputBytes := int64(fileUniformRecs * balancesort.RecordSize)

	if r.trace {
		return fileUniformTraced(r, inPath, want, inputBytes)
	}
	dropInputs()

	var sortS, cpuS, heap, scratch, ratio, wire []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < r.seconds; i++ {
		if r.ctx.Err() != nil {
			return r.ctx.Err()
		}
		if i > 0 {
			if err := writeInput(i); err != nil {
				return err
			}
			dropInputs()
		}
		s, err := fileSortOnce(r, inPath, want, inputBytes, balancesort.ObsConfig{})
		if err != nil {
			return err
		}
		if s.res == nil {
			continue
		}
		sortS = append(sortS, s.w.wall)
		cpuS = append(cpuS, s.w.cpu)
		heap = append(heap, s.w.heapPeakMB)
		scratch = append(scratch, float64(s.scratchBytes)/float64(inputBytes))
		ratio = append(ratio, float64(s.res.IOs)/s.res.IOLowerBound)
		wire = append(wire, float64(inputBytes+s.outBytes)/float64(inputBytes))
	}
	setOpMetrics(r, sortS)
	r.set("cpu_s", median(cpuS))
	r.set("heap_peak_mb", median(heap))
	r.set("scratch_per_input", median(scratch))
	r.set("model_io_ratio", median(ratio))
	r.set("wire_per_input", median(wire))
	return nil
}

// inputSeed derives the seed of a run's i-th input from the run's seed.
func inputSeed(seed uint64, i int) uint64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) + uint64(i)
}

// setOpMetrics sets the latency and throughput metrics of a workload whose
// every operation is one out-of-core sort. A run holds a few sorts, too
// few for any percentile above the median to have ten samples beyond it,
// so job_p90_s reports the median too.
func setOpMetrics(r *run, sortS []float64) {
	r.set("sort_s", median(sortS))
	r.set("job_p50_s", median(sortS))
	r.set("job_p90_s", median(sortS))
	var sum float64
	for _, s := range sortS {
		sum += s
	}
	r.set("jobs_per_s", float64(len(sortS))/sum)
}

type fileSort struct {
	res          *balancesort.Result // nil when the sort failed
	w            windowResult
	scratchBytes int64
	outBytes     int64
}

// fileSortOnce runs one timed SortFile on fresh scratch and verifies its
// output. A failed sort or check is counted and returns a nil res.
func fileSortOnce(r *run, inPath string, want digest, inputBytes int64, oc balancesort.ObsConfig) (fileSort, error) {
	scratch, err := r.dir("sort-scratch")
	if err != nil {
		return fileSort{}, err
	}
	outPath := filepath.Join(r.root, "output.bin")
	cfg := sortConfig()
	cfg.Obs = oc
	r.attempted++
	w := startWindow(&r.host)
	res, err := balancesort.SortFile(inPath, outPath, scratch, cfg)
	out := fileSort{w: w.end()}
	fmt.Fprintf(os.Stderr, "perfbench: SortFile %d: %.3fs wall, %.3fs cpu, %.2f MiB live heap\n", r.attempted, out.w.wall, out.w.cpu, out.w.heapPeakMB)
	if err != nil {
		r.fail("SortFile: %v", err)
		return out, nil
	}
	// The array's files only grow during a sort, so their final size is
	// the peak.
	out.scratchBytes = dirBytes(scratch)
	if st, err := os.Stat(outPath); err == nil {
		out.outBytes = st.Size()
	}
	if err := checkSortedFile(outPath, want); err != nil {
		r.fail("SortFile output: %v", err)
		return out, nil
	}
	if lb := core.LowerBoundIOs(int(inputBytes/balancesort.RecordSize), geometry); lb != res.IOLowerBound {
		r.fail("SortFile reported an I/O lower bound of %v, want %v", res.IOLowerBound, lb)
		return out, nil
	}
	out.res = res
	return out, errAll(os.Remove(outPath), os.RemoveAll(scratch))
}

// errAll returns the first non-nil error.
func errAll(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fileUniformTraced produces file-uniform's per-layer metrics: an
// untraced sort (the runtime counters), a traced sort, a second untraced
// sort (with the first, the baseline of the trace overhead), and the
// layer probes.
func fileUniformTraced(r *run, inPath string, want digest, inputBytes int64) error {
	recs := balancesort.NewWorkload(balancesort.Uniform, fileUniformRecs, inputSeed(r.seed, 0))
	if err := probeRecord(r, recs); err != nil {
		return err
	}
	if err := probeInMem(r, recs); err != nil {
		return err
	}
	recs = nil
	dropInputs()

	plain, err := fileSortOnce(r, inPath, want, inputBytes, balancesort.ObsConfig{})
	if err != nil || plain.res == nil {
		return err
	}
	setRuntimeLayers(r, plain.w)

	agg := newSpanAgg()
	traced, err := fileSortOnce(r, inPath, want, inputBytes, sortTraceObs(agg))
	if err != nil || traced.res == nil {
		return err
	}
	setResultLayers(r, traced.res, agg, inputBytes)
	checkTrace(r, traced.res.Trace, agg, traced.w.wall)
	plain2, err := fileSortOnce(r, inPath, want, inputBytes, balancesort.ObsConfig{})
	if err != nil || plain2.res == nil {
		return err
	}
	r.set("obs.trace_overhead", traceOverhead(traced.w.wall, plain.w.wall, plain2.w.wall))

	if err := probePram(r, meanBaseCase(agg, geometry.M/2)); err != nil {
		return err
	}
	return probeStripes(r)
}

// traceOverhead compares a traced sort with the untraced sorts run just
// before and just after it, so a drift of the host between runs does not
// read as overhead.
func traceOverhead(traced, before, after float64) float64 {
	plain := (before + after) / 2
	return (traced - plain) / plain
}

// sortTraceObs is the observability of a traced single-node sort. The
// Observer is the only consumer of the spans, so the tracer's span ring is
// kept to one slot: a ring that kept every span (about 37,000 on
// file-uniform) would hold tens of MiB live, and the sort would collect
// garbage a tenth as often as it does untraced, making the traced run
// faster than the program it measures.
func sortTraceObs(agg *spanAgg) balancesort.ObsConfig {
	return balancesort.ObsConfig{Observer: agg, SpanCapacity: 1}
}

// checkTrace sets obs.spans_dropped — the spans the tracer recorded that
// the Observer did not see, so the per-layer numbers miss them — and fails
// the run unless it is 0 and the sort's top-level spans fit inside its
// wall time.
func checkTrace(r *run, tr *balancesort.Trace, agg *spanAgg, wall float64) {
	recorded := tr.Dropped()
	for _, s := range tr.Spans() {
		if s.Flow == 0 && s.Layer != "counter" {
			recorded++
		}
	}
	missed := recorded - agg.count()
	r.set("obs.spans_dropped", float64(missed))
	if missed != 0 {
		r.fail("trace: the tracer recorded %d spans, the observer saw %d", recorded, agg.count())
	}
	if top := agg.topLevel("sort").Seconds(); top > wall {
		r.fail("trace: top-level sort spans cover %.3fs, more than the sort's %.3fs", top, wall)
	}
}
