// Command perfbench is the repository's benchmark. It generates every
// input from a seed, runs one named workload against code built from
// the checkout it runs in, checks every answer against an oracle, and
// prints one JSON result line last on stdout.
//
// Usage (from the repository root; run.sh builds simqd and this
// program first):
//
//	bash perfbench/run.sh --workload scan --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off. With --trace 1 a separate traced pass over the same
// inputs carries the per-layer metrics, prints a waterfall that adds up
// to the end-to-end figures, and writes its spans to
// .bench_build/perfbench/trace-<workload>-<seed>.json.
//
// Workloads (see workloads below for why each exists):
//
//	scan    simqd, 100k words + 20k 64-d vectors, 2 clients, WITHIN/NEAREST/vector/join
//	ingest  simqd -shards 2 -wal, open-loop writer beside 1 closed-loop reader, kill and restart
//	series  in process, tsdb over 50k random walks, transformed range queries
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads are the benchmark's workloads in the order BENCHMARK.json
// lists them.
var workloads = []struct {
	name, why string
	run       func(r *runner) error
}{
	{"scan", "kernels, index traversal, the batch pipeline and joins do most of the work, and ad-hoc texts overflow the plan cache: engine changes show here", runScan},
	{"ingest", "durable writes (WAL fsync, group commit, checkpoints, MVCC compaction, index upkeep) beside reads whose cached plans the writes invalidate", runIngest},
	{"series", "the paper's own algorithm in process: DFT features and R-tree search with the transform applied on the fly, the only workload reaching tsdb, rtree and dft", runSeries},
}

// moreSetups says whether a run sets its workload up once more.
// setup_s is the median of the repetitions, so one slow start does not
// decide it: at least three, and up to 25 while together they took
// under two seconds of wall time, so cheap set-ups get more
// repetitions. The traced run, which does not report setup_s, sets up
// once.
func (r *runner) moreSetups(setups []setupCost) bool {
	var sum float64
	for _, s := range setups {
		sum += s.wall
	}
	return !r.trace && (len(setups) < 3 || (len(setups) < 25 && sum < 2))
}

// setupCost is what one set-up took: wall seconds, and CPU seconds of
// the benchmark process and the server together. setup_s is the median
// CPU figure. A virtual machine's wall clock also counts the time the
// host gives its cores to other guests, which CPU time leaves out: on
// the two-core guest the benchmark was built on, over ten seeds the
// spread of the median wall-clock set-up was 0.19 of its median on scan
// and that of CPU time 0.07. Work added to set-up shows in CPU time as
// it does in wall time.
type setupCost struct{ wall, cpu float64 }

// setupClock times one set-up.
type setupClock struct {
	start time.Time
	cpu   float64
}

func startSetup() setupClock { return setupClock{time.Now(), cpuTime()} }

// stop ends the set-up. pid is the server's process, or 0 for a
// workload that runs in process.
func (c setupClock) stop(pid int) setupCost {
	cost := setupCost{wall: time.Since(c.start).Seconds(), cpu: cpuTime() - c.cpu}
	if pid > 0 {
		cost.cpu += procCPU(pid)
	}
	return cost
}

// runner carries one run's configuration and collects its results.
type runner struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string // this run's scratch directory under .bench_build
	simqdBin string
	client   *http.Client

	attempted, failed int
	mismatches        int // oracle mismatches and failed checks
	metrics           map[string]float64
	notes             []string // human-readable lines printed before the result
	spans             []span   // traced run only
	steal, ticks      float64  // /proc/stat at start: steal and all CPU ticks
}

func main() {
	wl := flag.String("workload", "", "workload name: scan, ingest or series")
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	seconds := flag.Int("seconds", 20, "measured duration of the run in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced pass with per-layer metrics")
	root := flag.String("root", ".", "checkout root (run.sh passes it)")
	flag.Parse()

	r := &runner{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1, metrics: map[string]float64{}}
	r.steal, r.ticks = hostSteal()
	if r.trace {
		// A layer the workload does not reach reads 0.
		for _, d := range perLayer {
			r.metrics[d.name] = 0
		}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1"))
	}
	var run func(*runner) error
	for _, w := range workloads {
		if w.name == *wl {
			run = w.run
		}
	}
	if run == nil {
		fail(fmt.Errorf("unknown --workload %q", *wl))
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fail(err)
	}
	r.simqdBin = filepath.Join(abs, ".bench_build", "bin", "simqd")
	r.dir = filepath.Join(abs, ".bench_build", "perfbench", fmt.Sprintf("%s-%d-%d", *wl, *seed, os.Getpid()))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		fail(err)
	}
	defer os.RemoveAll(r.dir)
	r.client = newClient()
	// The benchmark keeps every answer until the oracle checks it after
	// the measured loop; a lazier collector keeps its own GC off the
	// two cores the server is measured on.
	debug.SetGCPercent(400)

	if err := run(r); err != nil {
		os.RemoveAll(r.dir)
		fail(err)
	}
	if r.trace {
		if err := r.writeSpans(); err != nil {
			os.RemoveAll(r.dir)
			fail(err)
		}
	}
	r.print()
}

// print writes the provenance line, the notes and, last, the result.
func (r *runner) print() {
	prov, _ := json.Marshal(map[string]any{"perfbench": fingerprint(r)})
	fmt.Println(string(prov))
	for _, n := range r.notes {
		fmt.Println(n)
	}
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			fail(fmt.Errorf("workload %s did not measure %s", r.workload, d.name))
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for name := range r.metrics {
		if !hasMetric(defs, name) {
			fail(fmt.Errorf("workload %s measured undeclared metric %s", r.workload, name))
		}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   r.mismatches == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// fingerprint is the provenance written with every result.
func fingerprint(r *runner) map[string]any {
	steal, ticks := hostSteal()
	return map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds,
		"trace":      r.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"max_conns":  maxConns,
		"host_steal": ratio(steal-r.steal, ticks-r.ticks),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTime is the benchmark process's own user+system CPU seconds;
// the traced run reports what its measured loop used as
// load.client_cpu_s.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostSteal reads the machine's CPU time from /proc/stat: the ticks
// the hypervisor gave this guest's cores to others, and all ticks. The
// provenance line reports the stolen share over the run, because on a
// virtual machine it is the main outside cause of runs reading slow.
func hostSteal() (steal, ticks float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ { // user nice system idle iowait irq softirq steal
		v, _ := strconv.ParseFloat(f[i], 64)
		ticks += v
		if i == 8 {
			steal = v
		}
	}
	return steal, ticks
}

// procCPU is the CPU seconds a live process has used so far: the sum
// over its threads of /proc/<pid>/task/<tid>/schedstat's first field,
// nanoseconds on a CPU. Unlike /proc/<pid>/stat it is not rounded to
// clock ticks.
func procCPU(pid int) float64 {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue
		}
		f := strings.Fields(string(b))
		if len(f) > 0 {
			v, _ := strconv.ParseInt(f[0], 10, 64)
			ns += v
		}
	}
	return float64(ns) / 1e9
}

// note adds a line printed before the result.
func (r *runner) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// deadline is the end of the measured interval starting now.
func (r *runner) deadline() time.Time { return time.Now().Add(time.Duration(r.seconds) * time.Second) }

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
