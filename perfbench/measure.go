package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hostLabels describe the machine a run measured on. They are data for
// attributing a slow set of runs, not metrics: CPU steal alone has moved
// one workload's median sort time by more than half on a 2-core VM.
type hostLabels struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	ScratchFS  string  `json:"scratch_fs"`
	StealS     float64 `json:"steal_s"` // CPU steal over the timed sections; -1 without /proc/stat
}

func newHostLabels(root string) hostLabels {
	h := hostLabels{
		Commit:     sourceCommit(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		ScratchFS:  fsType(root),
	}
	if _, ok := stealTicks(); !ok {
		h.StealS = -1
	}
	return h
}

// sourceCommit names the code under test: the VCS revision stamped into
// the binary when there is one, else a digest of the module's Go sources
// (a benchmark checkout need not be a repository).
func sourceCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(b)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}

// stealTicks reads the machine-wide CPU steal counter (in USER_HZ ticks)
// from /proc/stat.
func stealTicks() (int64, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	return v, err == nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// window measures one timed section: wall time, process CPU, CPU steal,
// the Go runtime's allocation and GC counters, and the peak live heap.
//
// The peak is the live heap that 99% of the section's GC cycles end under.
// The maximum over cycles is set by whichever cycle happens to mark a
// transient buffer: on file-uniform it jumped between 2.2 and 5.1 MiB from
// sort to sort, where the 99th percentile stayed within 2.04-2.15 MiB.
// Buffering a whole input would still show as a multiple of it.
type window struct {
	start     time.Time
	cpu0      float64
	steal0    int64
	rt0       rtCounters
	stop      chan struct{}
	done      chan struct{}
	lives     []float64 // live heap (MiB) after each GC cycle seen
	stealHost *hostLabels
}

type windowResult struct {
	wall, cpu  float64 // seconds
	allocMB    float64
	gcCycles   float64
	gcCPU      float64 // seconds
	heapPeakMB float64
}

type rtCounters struct {
	allocBytes, gcCycles uint64
	gcCPU                float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRT() rtCounters {
	s := append([]metrics.Sample(nil), rtSamples...)
	metrics.Read(s)
	return rtCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
	}
}

// heapSampleEvery is the live-heap sampling period. The live heap changes
// only at the end of a GC cycle, and the sorts here run a cycle every few
// milliseconds, so a 2 ms period sees most cycles' values.
const heapSampleEvery = 2 * time.Millisecond

// startWindow begins a timed section; h, when non-nil, accumulates the
// section's CPU steal.
func startWindow(h *hostLabels) *window {
	w := &window{stop: make(chan struct{}), done: make(chan struct{}), stealHost: h}
	smp := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(smp)
	last := smp[1].Value.Uint64()
	go func() {
		defer close(w.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				metrics.Read(smp)
				if c := smp[1].Value.Uint64(); c != last {
					last = c
					w.lives = append(w.lives, float64(smp[0].Value.Uint64())/(1<<20))
				}
			}
		}
	}()
	w.steal0, _ = stealTicks()
	w.rt0 = readRT()
	w.cpu0 = cpuSeconds()
	w.start = time.Now()
	return w
}

func (w *window) end() windowResult {
	wall := time.Since(w.start).Seconds()
	cpu := cpuSeconds() - w.cpu0
	rt := readRT()
	close(w.stop)
	<-w.done
	if s, ok := stealTicks(); ok && w.stealHost != nil && w.stealHost.StealS >= 0 {
		w.stealHost.StealS += float64(s-w.steal0) / 100 // USER_HZ
	}
	return windowResult{
		wall:       wall,
		cpu:        cpu,
		allocMB:    float64(rt.allocBytes-w.rt0.allocBytes) / (1 << 20),
		gcCycles:   float64(rt.gcCycles - w.rt0.gcCycles),
		gcCPU:      rt.gcCPU - w.rt0.gcCPU,
		heapPeakMB: quantile(w.lives, 0.99),
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// dirSampler tracks, for each key, the peak total size of a set of
// directories while an operation runs. Cluster workers and the job server
// delete their scratch on their own schedule, so the peak is sampled.
type dirSampler struct {
	mu   sync.Mutex
	peak map[string]int64
	stop chan struct{}
	done chan struct{}
}

// startDirSampler samples every period; list returns the current
// key → directories to sum.
func startDirSampler(every time.Duration, list func() map[string][]string) *dirSampler {
	s := &dirSampler{peak: map[string]int64{}, stop: make(chan struct{}), done: make(chan struct{})}
	sample := func() {
		for key, dirs := range list() {
			var n int64
			for _, d := range dirs {
				n += dirBytes(d)
			}
			s.mu.Lock()
			if n > s.peak[key] {
				s.peak[key] = n
			}
			s.mu.Unlock()
		}
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return s
}

func (s *dirSampler) peakOf(key string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak[key]
}

func (s *dirSampler) end() {
	close(s.stop)
	<-s.done
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
