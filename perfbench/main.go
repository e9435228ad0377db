// Command perfbench is the repository's benchmark. It drives the system
// from outside, through the public functions of internal/core, exec, serve
// and dist, on one of four workloads, checks every output against a
// sequential-interpreter oracle, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics named in BENCHMARK.json (-trace 0) or its
// per-layer metrics (-trace 1, a separate run with spans and the obs
// profiler on). Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload batch-peek --seed 1 --seconds 24 --trace 0
//
// See perfbench/README.md for the workloads and the layer-to-metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxWorkers caps every worker set the benchmark starts: mapped workers,
// serve pool workers and shards × per-shard workers.
const maxWorkers = 2

// workers returns the worker count: the machine's cores, at most maxWorkers.
func workers() int { return min(runtime.NumCPU(), maxWorkers) }

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	root     string // repository root (for example programs)
	out      string // scratch directory inside the checkout
	rng      *rand.Rand
	tr       *tracer // nil unless traced
	small    bool    // self-test sizes
}

// metric is one measured value.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report is what a workload hands back.
type report struct {
	attempted int64
	failed    int64
	errs      []string // first few failure descriptions
	metrics   []metric
	notes     []string
}

// set records a metric, replacing an earlier value of the same name.
func (r *report) set(name string, v float64, unit string) {
	for i := range r.metrics {
		if r.metrics[i].Name == name {
			r.metrics[i] = metric{name, v, unit}
			return
		}
	}
	r.metrics = append(r.metrics, metric{name, v, unit})
}

// get returns a recorded metric.
func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// attempt counts one operation; a non-nil err counts it as failed.
func (r *report) attempt(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*config) (*report, error){
	"batch-peek": runBatchPeek,
	"batch-wide": runBatchWide,
	"serve-open": runServeOpen,
	"dist-epoch": runDistEpoch,
}

// spec is the part of BENCHMARK.json the benchmark checks its output
// against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractMetrics selects the metrics BENCHMARK.json names for this mode.
// A missing end-to-end metric or a unit that differs from the spec is an
// error; a per-layer metric the workload does not exercise reads 0.
func contractMetrics(sp *spec, rep *report, traced bool) (map[string]resultItem, error) {
	names := sp.EndToEnd
	if traced {
		names = sp.PerLayer
	}
	out := map[string]resultItem{}
	for _, want := range names {
		m, ok := rep.get(want.Name)
		if !ok {
			if !traced {
				return nil, fmt.Errorf("workload did not measure end-to-end metric %s", want.Name)
			}
			m = metric{want.Name, 0, want.Unit}
		}
		if m.Unit != want.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, m.Unit, want.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		out[want.Name] = resultItem{m.Value, m.Unit}
	}
	return out, nil
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: batch-peek, batch-wide, serve-open or dist-epoch")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the workload's generated inputs and run order")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run emitting the per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for snapshots and traces")
	flag.Parse()
	if err := run(&cfg, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg *config, trace int) error {
	drive := workloads[cfg.workload]
	if drive == nil {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(names, ", "))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	sp, err := loadSpec(cfg.root)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	cfg.traced = trace == 1
	cfg.rng = rand.New(rand.NewSource(cfg.seed))
	if cfg.traced {
		cfg.tr = newTracer()
	}
	start := time.Now()
	rep, err := drive(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	printReport(cfg, rep, time.Since(start))
	if cfg.tr != nil {
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := cfg.tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("# spans written to %s\n", path)
	}
	ms, err := contractMetrics(sp, rep, cfg.traced)
	if err != nil {
		return err
	}
	line, err := json.Marshal(result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   ms,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rep.failed > 0 {
		return errors.New("failed operations (see the report above)")
	}
	return nil
}

// printReport writes every measured metric, one per line, ahead of the
// JSON result.
func printReport(cfg *config, rep *report, wall time.Duration) {
	mode := "untraced"
	if cfg.traced {
		mode = "traced"
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g mode=%s workers=%d wall=%.1fs\n",
		cfg.workload, cfg.seed, cfg.seconds, mode, workers(), wall.Seconds())
	for _, n := range rep.notes {
		fmt.Printf("# %s\n", n)
	}
	errRate := 0.0
	if rep.attempted > 0 {
		errRate = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("metric %-44s %18.6g %s\n", "error_rate", errRate, "ratio")
	for _, m := range rep.metrics {
		fmt.Printf("metric %-44s %18.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, e := range rep.errs {
		fmt.Printf("# FAILED: %s\n", e)
	}
}

// residentMiB forces a collection and returns the live heap in MiB.
func residentMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
