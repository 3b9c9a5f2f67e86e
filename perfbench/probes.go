package main

import (
	"fmt"
	"runtime"
	"time"

	"balancesort"
	"balancesort/internal/diskio"
	"balancesort/internal/pdm"
	"balancesort/internal/pram"
	"balancesort/internal/record"
)

// Direct probes of single layers, timed from outside through their public
// functions. Each repeats its measurement and keeps the median.
const probeReps = 5

// probeRecord times the record codec over recs (the workload's input).
func probeRecord(r *run, recs []balancesort.Record) error {
	var enc, dec []float64
	for i := 0; i < probeReps; i++ {
		t := time.Now()
		buf := record.EncodeSlice(recs)
		enc = append(enc, float64(time.Since(t).Nanoseconds())/float64(len(recs)))
		t = time.Now()
		back, err := record.DecodeSlice(buf)
		dec = append(dec, float64(time.Since(t).Nanoseconds())/float64(len(recs)))
		if err != nil || len(back) != len(recs) || back[len(back)-1] != recs[len(recs)-1] {
			return fmt.Errorf("record codec probe: round trip lost records (%v)", err)
		}
	}
	r.set("record.encode_ns_per_rec", median(enc))
	r.set("record.decode_ns_per_rec", median(dec))
	return nil
}

// probeRadix times pram's radix sort — the base case and run-formation
// sort of Balance Sort — on n uniform records, and reports its ns per
// record and KiB allocated per call.
func probeRadix(seed uint64, n int) (nsPerRec, kbPerCall float64, err error) {
	src := balancesort.NewWorkload(balancesort.Uniform, n, seed)
	buf := make([]balancesort.Record, n)
	m := pram.New(1)
	var ns, kb []float64
	for i := 0; i < probeReps; i++ {
		copy(buf, src)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t := time.Now()
		m.SortRadix(buf)
		ns = append(ns, float64(time.Since(t).Nanoseconds())/float64(n))
		runtime.ReadMemStats(&after)
		kb = append(kb, float64(after.TotalAlloc-before.TotalAlloc)/1024)
		if !record.IsSorted(buf) {
			return 0, 0, fmt.Errorf("radix probe: SortRadix left %d records unsorted", n)
		}
	}
	return median(ns), median(kb), nil
}

// probePram sets the pram metrics: the radix sort at baseN records (the
// mean base-case size of the traced run) and at half a memoryload.
func probePram(r *run, baseN int) error {
	ns, _, err := probeRadix(r.seed, baseN)
	if err != nil {
		return err
	}
	r.set("pram.radix_base_ns_per_rec", ns)
	ns, kb, err := probeRadix(r.seed, geometry.M/2)
	if err != nil {
		return err
	}
	r.set("pram.radix_memload_ns_per_rec", ns)
	r.set("pram.radix_alloc_kb_per_call", kb)
	return nil
}

// probeStripes times pdm's striped writes and reads on a file-backed array
// opened the way the workload's sorts open theirs (I/O engine on with the
// facade's default read-ahead and write coalescing, checksums on), under
// the scratch root.
func probeStripes(r *run) error {
	const rows = 2048 // 16 MiB at D=8, B=64
	p := geometry
	rowRecs := p.D * p.B
	data := balancesort.NewWorkload(balancesort.Uniform, rowRecs, r.seed)
	got := make([]balancesort.Record, rowRecs)
	mib := float64(rows*rowRecs*record.EncodedSize) / (1 << 20)
	var wr, rd []float64
	for i := 0; i < 3; i++ {
		dir, err := r.dir("pdm-probe")
		if err != nil {
			return err
		}
		// Prefetch 2 and WriteBehind 4 are what IOConfig{Engine: true}
		// selects.
		arr, err := pdm.NewFileBackedOpts(p, dir, pdm.FileOptions{Engine: &diskio.Config{Prefetch: 2, WriteBehind: 4}})
		if err != nil {
			return err
		}
		off := arr.AllocStripe(rows)
		t := time.Now()
		for row := 0; row < rows; row++ {
			arr.WriteStripe(off+row, data)
		}
		wr = append(wr, mib/time.Since(t).Seconds())
		t = time.Now()
		for row := 0; row < rows; row++ {
			arr.ReadStripe(off+row, got)
		}
		rd = append(rd, mib/time.Since(t).Seconds())
		if got[rowRecs-1] != data[rowRecs-1] {
			arr.Close()
			return fmt.Errorf("pdm probe: read back a different stripe")
		}
		if err := arr.Close(); err != nil {
			return err
		}
	}
	r.set("pdm.stripe_write_mb_s", median(wr))
	r.set("pdm.stripe_read_mb_s", median(rd))
	return nil
}

// probeInMem times Balance Sort on simulated in-memory disks with the
// workload's geometry: the same algorithm without the file I/O stack.
func probeInMem(r *run, recs []balancesort.Record) error {
	t := time.Now()
	res, err := balancesort.Sort(recs, sortConfig())
	if err != nil {
		return fmt.Errorf("in-memory probe: %w", err)
	}
	r.set("core.inmem_sort_s", time.Since(t).Seconds())
	if !record.IsSorted(res.Records) || digestOf(res.Records) != digestOf(recs) {
		r.fail("in-memory probe: output is not the sorted input")
	}
	return nil
}

// setResultLayers sets the per-layer metrics a file-backed Result and its
// traced span stream carry.
func setResultLayers(r *run, res *balancesort.Result, agg *spanAgg, inputBytes int64) {
	r.set("core.run_formation_s", agg.self("sort", "run-formation"))
	r.set("core.distribute_tracks_s", agg.self("sort", "distribute-tracks"))
	r.set("core.partition_s", agg.self("sort", "partition-elements"))
	r.set("core.base_case_s", agg.self("sort", "base-case"))
	r.set("core.passes", float64(res.Passes))
	r.set("core.depth", float64(res.Depth))
	r.set("core.read_ratio", res.MaxBucketReadRatio)
	n, s := agg.total("sort", "repair-rearrange")
	r.set("balance.repairs", float64(n))
	r.set("balance.repair_s", s)
	_, s = agg.total("disk", "flush")
	r.set("diskio.flush_s", s)
	if res.IO != nil {
		io := res.IO.Aggregate()
		r.set("diskio.busy_s", float64(io.BusyNanos)/1e9)
		r.set("diskio.bytes_per_input", float64(io.BytesRead+io.BytesWritten)/float64(inputBytes))
		if io.PrefetchIssued > 0 {
			r.set("diskio.prefetch_hit_ratio", float64(io.PrefetchHits)/float64(io.PrefetchIssued))
		}
		if io.Writes > 0 {
			blockBytes := float64(geometry.B * record.EncodedSize)
			r.set("diskio.coalesce_ratio", float64(io.BytesWritten)/blockBytes/float64(io.Writes))
		}
		r.set("diskio.queue_max", float64(io.QueueMax))
		r.set("diskio.retries", float64(io.Retries))
	}
}

// meanBaseCase is the mean record count of the traced base cases, or
// fallback when the run had none.
func meanBaseCase(agg *spanAgg, fallback int) int {
	n, _ := agg.total("sort", "base-case")
	if n == 0 {
		return fallback
	}
	return int(agg.attrTotal("sort", "base-case", "n") / n)
}

// setRuntimeLayers sets the Go runtime metrics of an untraced timed
// section.
func setRuntimeLayers(r *run, w windowResult) {
	r.set("runtime.alloc_mb", w.allocMB)
	r.set("runtime.gc_cycles", w.gcCycles)
	r.set("runtime.gc_cpu_s", w.gcCPU)
}
