// Command perfbench is the repository's benchmark: CCD searches through
// driver.Search and requests through an in-process mapfleet router over
// mapd replicas, under two named workloads (see README.md). It prints
// a host block and, as its last line, one JSON result with every
// end-to-end metric (-trace 0) or every per-layer metric (-trace 1).
//
//	go build -o perfbench . && ./perfbench -workload search-htr -seed 1 -seconds 10 -trace 0
//
// Run from the repository root (it reads perfbench/oracle.json and writes
// spans and scratch stores under .bench_build/).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer list the reported metrics; BENCHMARK.json names
// the same ones (TestMetricTablesMatchBenchmarkJSON).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"search_s_p50", "s"},
	{"searches_per_s", "1/s"},
	{"sim_speedup_geomean", "x"},
	{"sim_search_s_geomean", "s"},
	{"peak_rss_mb", "MB"},
	{"warm_ms_p50", "ms"},
	{"warm_ms_p90", "ms"},
	{"cold_s_p50", "s"},
	{"cold_s_p90", "s"},
	{"warm_capacity_rps", "1/s"},
	{"success_frac", "ratio"},
}

var perLayer = []metricDef{
	{"driver.setup_s", "s"},
	{"driver.final_phase_s", "s"},
	{"driver.evaluate_s", "s"},
	{"driver.evaluate_calls", "count"},
	{"driver.cache_hit_ratio", "ratio"},
	{"driver.prefetch_cands", "count"},
	{"driver.prefetch_useful_ratio", "ratio"},
	{"search.ccd_self_s", "s"},
	{"search.suggested", "count"},
	{"search.evaluated", "count"},
	{"sim.plan_us", "us"},
	{"sim.record_us", "us"},
	{"sim.fold_us", "us"},
	{"sim.classify_us", "us"},
	{"sim.delta_run_us", "us"},
	{"sim.delta.incremental_ratio", "ratio"},
	{"sim.alloc_kb_per_eval", "KB"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.alloc_mb_per_search", "MB"},
	{"go.gc_cycles_per_search", "count"},
	{"profile.extract_ms", "ms"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.status_ms_p50", "ms"},
	{"serve.fingerprint_us", "us"},
	{"serve.queue_wait_ms_mean", "ms"},
	{"serve.search_s_mean", "s"},
	{"serve.coalesce_hit_ratio", "ratio"},
	{"store.begin_hit_us", "us"},
	{"store.complete_ms", "ms"},
	{"fleet.router_hop_ms_p50", "ms"},
	{"fleet.admit_us", "us"},
	{"bench.gen_lag_ms_p99", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"search-htr":   func(b *bench) error { return runSearch(b, []string{"htr"}) },
	"search-small": func(b *bench) error { return runSearch(b, []string{"stencil", "circuit", "maestro"}) },
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// bench is one run's configuration and accumulated outcome.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	workers  int
	dir      string // scratch directory for stores
	o        oracle
	tr       *tracer // nil unless -trace 1

	mu        sync.Mutex
	attempted int
	failed    int
	logged    int
	lags      []float64 // generator lateness, ms
	out       map[string]float64
}

// record counts one attempted operation and, when err is non-nil, one
// failure (the first few are logged to stderr).
func (b *bench) record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err == nil {
		return
	}
	b.failed++
	if b.logged < 10 {
		b.logged++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
	}
}

func (b *bench) lag(d time.Duration) {
	b.mu.Lock()
	b.lags = append(b.lags, float64(d)/1e6)
	b.mu.Unlock()
}

// seg returns the duration of a share of the run's measured seconds.
func (b *bench) seg(frac float64) time.Duration {
	return time.Duration(frac * b.seconds * float64(time.Second))
}

// hostInfo identifies the machine and build a result was measured on.
type hostInfo struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func host(workers int) hostInfo {
	h := hostInfo{
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers,
		CPUModel: "unknown", GoVersion: runtime.Version(), Commit: os.Getenv("PERFBENCH_COMMIT"),
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return h
}

// peakRSSMB returns the process's VmHWM in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: search-htr or search-small")
	seed := flag.Uint64("seed", 1, "benchmark seed; it selects the search seeds and the request schedule")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	workers := flag.Int("workers", runtime.NumCPU(), "simulation workers per search (at most the core count)")
	oraclePath := flag.String("oracle", "perfbench/oracle.json", "reference results")
	genOraclePath := flag.String("gen-oracle", "", "regenerate the reference results into this file and exit")
	outDir := flag.String("out", ".bench_build", "directory for spans and scratch stores")
	flag.Parse()

	if *genOraclePath != "" {
		if err := genOracle(*genOraclePath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, *seed, *seconds, *traceFlag, *workers, *oraclePath, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, traceFlag, workers int, oraclePath, outDir string) error {
	runner, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	cores := runtime.NumCPU()
	if workers < 1 || workers > cores {
		return fmt.Errorf("-workers %d: must be between 1 and the %d available cores", workers, cores)
	}
	if runtime.GOMAXPROCS(0) > cores {
		return fmt.Errorf("GOMAXPROCS %d exceeds the %d available cores", runtime.GOMAXPROCS(0), cores)
	}
	if seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	o, err := loadOracle(oraclePath)
	if err != nil {
		return err
	}
	h := host(workers)
	hj, _ := json.Marshal(map[string]hostInfo{"host": h})
	fmt.Println(string(hj))

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b := &bench{workload: workload, seed: seed, seconds: seconds, workers: workers, dir: dir, o: o, out: map[string]float64{}}
	defs := endToEnd
	if traceFlag == 1 {
		b.tr = newTracer()
		defs = perLayer
	}
	if err := runner(b); err != nil {
		return err
	}
	b.out["peak_rss_mb"] = peakRSSMB()
	b.out["success_frac"] = ratio(float64(b.attempted-b.failed), float64(b.attempted))
	b.out["bench.gen_lag_ms_p99"] = quantile(b.lags, 0.99)
	if b.tr != nil {
		path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
		if err := b.tr.write(path, h); err != nil {
			return err
		}
	}
	res := resultOut{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := b.out[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", workload, d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if res.Attempted == 0 {
		return fmt.Errorf("workload %s attempted nothing", workload)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
