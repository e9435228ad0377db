package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"streamit/internal/apps"
	"streamit/internal/core"
	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/partition"
	"streamit/internal/sched"
)

// batchEngine is one engine configuration of the batch workloads: the
// sequential VM engine, or the mapped engine under a rewrite strategy.
type batchEngine struct {
	key   string // metric-name stem
	strat partition.Strategy
}

var batchEngines = []batchEngine{
	{"seq", ""},
	{"task", partition.StratTask},
	{"taskdata", partition.StratCoarseData},
	{"swp", partition.StratSWP},
}

// Apps of the two batch workloads. batch-peek's apps peek heavily, so the
// task+data rewrite recomputes over widened windows; batch-wide's apps
// never peek and have many fine-grained filters, so queue handoff and VM
// dispatch dominate instead.
var (
	peekApps = []string{"FMRadio", "FilterBank", "ChannelVocoder"}
	wideApps = []string{"BitonicSort", "DES", "Serpent", "FFT"}
)

// batchIters is the fixed number of steady iterations one job runs, per
// app and engine. The counts were chosen once, so that every job takes
// roughly 10 ms on a 2-core x86-64 machine at the commit that introduced
// the benchmark; they are constants, never re-derived per run, so a faster
// program finishes the same job sooner. A mapped iteration covers the
// rewrite's steady-state multiple of the original's.
var batchIters = map[string]map[string]int{
	"FMRadio":        {"seq": 300, "task": 260, "taskdata": 8, "swp": 260},
	"FilterBank":     {"seq": 50, "task": 28, "taskdata": 7, "swp": 60},
	"ChannelVocoder": {"seq": 330, "task": 250, "taskdata": 43, "swp": 380},
	"BitonicSort":    {"seq": 250, "task": 100, "taskdata": 100, "swp": 220},
	"DES":            {"seq": 24, "task": 22, "taskdata": 22, "swp": 16},
	"Serpent":        {"seq": 15, "task": 15, "taskdata": 3, "swp": 15},
	"FFT":            {"seq": 180, "task": 100, "taskdata": 120, "swp": 110},
}

func runBatchPeek(cfg *config) (*report, error) { return runBatch(cfg, peekApps) }
func runBatchWide(cfg *config) (*report, error) { return runBatch(cfg, wideApps) }

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 31

// batchApp is one app's compiled program with its recorder sinks and its
// per-engine cells.
type batchApp struct {
	name   string
	build  func() *ir.Program
	comp   *core.Compiled
	recs   []*recorder
	steady []int // sink items per original steady iteration
	init   []int // sink items during initialization
	ref    [][]float64
	cells  []*batchCell
}

// batchCell is one (app, engine) pair: the engine and its jobs' timings.
type batchCell struct {
	app     *batchApp
	eng     batchEngine
	iters   int
	me      *exec.MappedEngine // nil for the sequential engine
	wantLen []int              // sink items one job must produce
	refIter int                // reference iterations covering one job
	jobMS   []float64
	rates   []float64 // sink items/s per job

	// Profile totals over the traced jobs.
	prof      map[string]obs.FilterProfile
	profItems int64
	profWall  time.Duration
}

func (cl *batchCell) name() string { return cl.app.name + "." + cl.eng.key }

func appBuilder(name string) (func() *ir.Program, error) {
	for _, a := range apps.Suite() {
		if a.Name == name {
			return a.Build, nil
		}
	}
	return nil, fmt.Errorf("no suite app %q", name)
}

// setupBatch compiles every app and builds every engine: the set-up that
// setup_s times. profile turns the obs profiler on in every engine.
func setupBatch(names []string, profile bool) ([]*batchApp, error) {
	var out []*batchApp
	for _, name := range names {
		build, err := appBuilder(name)
		if err != nil {
			return nil, err
		}
		a := &batchApp{name: name, build: build}
		prog := build()
		a.recs = swapSinks(prog)
		if a.comp, err = core.Compile(prog, core.Options{}); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if a.steady, a.init, err = sinkRates(a.comp.Graph, a.comp.Schedule, a.recs); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for _, eng := range batchEngines {
			cl := &batchCell{app: a, eng: eng, iters: batchIters[name][eng.key]}
			if cl.iters <= 0 {
				return nil, fmt.Errorf("%s: no iteration count for engine %s", name, eng.key)
			}
			if eng.strat == "" {
				// Sequential jobs stamp a fresh engine each (Engine.Run does
				// not restart a stream); compiling the shared VM bundle is
				// set-up.
				if _, err := a.comp.Shared(exec.BackendVM); err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
				cl.refIter = cl.iters
				cl.wantLen = make([]int, len(a.recs))
				for i := range a.recs {
					cl.wantLen[i] = a.init[i] + cl.iters*a.steady[i]
				}
			} else {
				cl.me, err = a.comp.MappedEngineOpts(core.RunOptions{
					MapStrategy: eng.strat, Workers: workers(), Profile: profile,
				})
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", name, eng.strat, err)
				}
				if err := cl.mappedLengths(); err != nil {
					return nil, fmt.Errorf("%s %s: %w", name, eng.strat, err)
				}
			}
			a.cells = append(a.cells, cl)
		}
		out = append(out, a)
	}
	return out, nil
}

// mappedLengths derives how many items a mapped job delivers to each sink
// and the rewrite's steady-state multiple: the reference runs that many
// original iterations per mapped one.
func (cl *batchCell) mappedLengths() error {
	a := cl.app
	steady, init, err := sinkRates(cl.me.G, cl.me.Sch, a.recs)
	if err != nil {
		return err
	}
	scale := 0
	for i := range steady {
		if a.steady[i] == 0 || steady[i]%a.steady[i] != 0 {
			return fmt.Errorf("sink %d: rewritten steady state delivers %d items, not a multiple of %d", i, steady[i], a.steady[i])
		}
		c := steady[i] / a.steady[i]
		if scale != 0 && c != scale {
			return fmt.Errorf("sinks scale unevenly (%dx and %dx)", scale, c)
		}
		scale = c
	}
	cl.refIter = cl.iters * scale
	cl.wantLen = make([]int, len(steady))
	for i := range steady {
		cl.wantLen[i] = init[i] + cl.iters*steady[i]
		if ref := a.init[i] + cl.refIter*a.steady[i]; ref != cl.wantLen[i] {
			return fmt.Errorf("sink %d: a job delivers %d items, the scaled reference %d", i, cl.wantLen[i], ref)
		}
	}
	return nil
}

// reference runs each app once on the sequential interpreter, long enough
// to cover the longest job, with its own recorder sinks.
func (a *batchApp) reference() error {
	need := 0
	for _, cl := range a.cells {
		need = max(need, cl.refIter)
	}
	prog := a.build()
	recs := swapSinks(prog)
	c, err := core.Compile(prog, core.Options{})
	if err != nil {
		return err
	}
	e, err := c.EngineOpts(core.RunOptions{Backend: exec.BackendInterp})
	if err != nil {
		return err
	}
	if err := e.Run(need); err != nil {
		return fmt.Errorf("%s reference: %w", a.name, err)
	}
	a.ref = make([][]float64, len(recs))
	for i, r := range recs {
		a.ref[i] = r.got
	}
	return nil
}

// job runs one fixed-size job on the cell's engine and checks its output.
// Only the engine run itself is timed.
func (cl *batchCell) job(tr *tracer, parent int64, profile bool) (time.Duration, error) {
	a := cl.app
	resetAll(a.recs)
	var dur time.Duration
	if cl.me == nil {
		var e *exec.Engine
		err := tr.call("exec.Shared.NewEngine", parent, 0, func() (err error) {
			e, err = a.comp.EngineOpts(core.RunOptions{Profile: profile})
			return err
		})
		if err != nil {
			return 0, err
		}
		id := tr.begin("exec.Engine.Run", parent, 0)
		t0 := time.Now()
		err = e.Run(cl.iters)
		dur = time.Since(t0)
		tr.end(id)
		if err != nil {
			return dur, err
		}
		if profile {
			cl.addProfile(e.Profile().Snapshot(), nil)
		}
	} else {
		var before []obs.FilterProfile
		if profile {
			before = cl.me.Profile().Snapshot()
		}
		id := tr.begin("exec.MappedEngine.Run", parent, 0)
		t0 := time.Now()
		err := cl.me.Run(cl.iters)
		dur = time.Since(t0)
		tr.end(id)
		if err != nil {
			return dur, err
		}
		if profile {
			cl.addProfile(cl.me.Profile().Snapshot(), before)
		}
	}
	if profile {
		cl.profItems += itemsOf(a.recs)
		cl.profWall += dur
	}
	id := tr.begin("oracle.check", parent, 0)
	err := checkPrefix(a.recs, a.ref, cl.wantLen)
	tr.end(id)
	if err != nil {
		return dur, fmt.Errorf("%s: output differs from the sequential interpreter: %w", cl.name(), err)
	}
	return dur, nil
}

// addProfile accumulates the per-node counters of one job (after minus
// before; before is nil for a fresh engine).
func (cl *batchCell) addProfile(after, before []obs.FilterProfile) {
	if cl.prof == nil {
		cl.prof = map[string]obs.FilterProfile{}
	}
	prev := map[string]obs.FilterProfile{}
	for _, p := range before {
		prev[p.Name] = p
	}
	for _, p := range after {
		b := prev[p.Name]
		acc := cl.prof[p.Name]
		acc.Name = p.Name
		acc.Firings += p.Firings - b.Firings
		acc.Peeked += p.Peeked - b.Peeked
		acc.WorkNS += p.WorkNS - b.WorkNS
		acc.StallNS += p.StallNS - b.StallNS
		cl.prof[p.Name] = acc
	}
}

// measureBatch runs rounds of jobs, every cell once per round in a seeded
// order, until the time budget is spent (and at least minRounds rounds).
// It returns the pooled job latencies in ms.
func measureBatch(cfg *config, all []*batchApp, budget time.Duration, minRounds int, profile bool, rep *report) []float64 {
	var cells []*batchCell
	for _, a := range all {
		cells = append(cells, a.cells...)
	}
	var jobs []float64
	deadline := time.Now().Add(budget)
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		rid := cfg.tr.begin("batch.round", 0, 0)
		for _, i := range cfg.rng.Perm(len(cells)) {
			cl := cells[i]
			dur, err := cl.job(cfg.tr, rid, profile)
			rep.attempt(err)
			if err != nil {
				continue
			}
			ms := float64(dur) / 1e6
			jobs = append(jobs, ms)
			cl.jobMS = append(cl.jobMS, ms)
			cl.rates = append(cl.rates, float64(itemsOf(cl.app.recs))/dur.Seconds())
		}
		cfg.tr.end(rid)
	}
	return jobs
}

func runBatch(cfg *config, names []string) (*report, error) {
	rep := &report{}
	tr := cfg.tr // spans only in the traced half
	cfg.tr = nil
	var setups []float64
	var all []*batchApp
	for i := 0; i < setupReps; i++ {
		runtime.GC() // every set-up starts from a collected heap
		t0 := time.Now()
		a, err := setupBatch(names, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		all = a
	}
	rep.set("setup_s", median(setups), "s")

	for _, a := range all {
		if err := a.reference(); err != nil {
			return nil, err
		}
		for _, cl := range a.cells { // warm-up job, checked, not timed
			_, err := cl.job(nil, 0, false)
			rep.attempt(err)
		}
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	minRounds := 3
	if cfg.small {
		minRounds = 1
	}
	if cfg.traced {
		budget /= 2
	}
	jobs := measureBatch(cfg, all, budget, minRounds, false, rep)
	rep.set("resident_mb", residentMiB(), "MiB")
	tput := batchRates(all, rep)
	rep.set("throughput_per_s", tput, "1/s")
	var jobP50 []float64
	for _, a := range all {
		for _, cl := range a.cells {
			jobP50 = append(jobP50, median(cl.jobMS))
		}
	}
	rep.set("latency_p50_ms", geomean(jobP50), "ms")
	rep.set("job_p99_ms", quantile(jobs, 0.99), "ms")
	rep.notef("%d jobs in %d cells; job_p99_ms has %d jobs beyond it", len(jobs), len(all)*len(batchEngines), len(jobs)/100)
	for _, a := range all {
		for _, cl := range a.cells {
			rep.notef("cell %-24s iters=%-3d job_p50=%.2fms jobs=%d", cl.name(), cl.iters, median(cl.jobMS), len(cl.jobMS))
		}
	}
	if !cfg.traced {
		return rep, nil
	}

	// Traced half: the same jobs on profiled engines, with spans.
	cfg.tr = tr
	var builds []func() *ir.Program
	for _, a := range all {
		builds = append(builds, a.build)
	}
	var strats []partition.Strategy
	for _, eng := range batchEngines[1:] {
		strats = append(strats, eng.strat)
	}
	if err := setupLayers(cfg, builds, strats, rep); err != nil {
		return nil, err
	}
	traced, err := setupBatch(names, true)
	if err != nil {
		return nil, err
	}
	for i, a := range traced {
		a.ref = all[i].ref
	}
	measureBatch(cfg, traced, budget, minRounds, true, rep)
	tracedTput := batchRates(traced, nil)
	rep.set("obs.trace_overhead_frac", tput/tracedTput-1, "ratio")
	batchLayers(cfg, traced, rep)
	if err := runSetupShare(cfg, all, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// runSetupShare measures the part of a timed mapped job that restarts the
// stream. MappedEngine.Run re-runs initialization on every call, on a
// scratch sequential engine it builds from the rewritten graph (a VM
// compile included), before the first steady iteration; Run(0) is that
// restart alone. A sequential job's engine is stamped from the compiled
// bundle outside its timed window, so this share is what the mapped
// engines' rates carry and the sequential rate does not. It reports the
// geomean over the mapped cells of the restart's median time and of its
// share of the cell's median untraced job.
func runSetupShare(cfg *config, all []*batchApp, rep *report) error {
	var restartMS, share []float64
	for _, a := range all {
		for _, cl := range a.cells {
			if cl.me == nil {
				continue
			}
			var ms []float64
			for i := 0; i < 5; i++ {
				id := cfg.tr.begin("exec.MappedEngine.Run(0)", 0, 0)
				t0 := time.Now()
				err := cl.me.Run(0)
				ms = append(ms, float64(time.Since(t0))/1e6)
				cfg.tr.end(id)
				rep.attempt(err)
				if err != nil {
					return err
				}
			}
			restartMS = append(restartMS, median(ms))
			share = append(share, median(ms)/median(cl.jobMS))
			rep.notef("cell %-24s restart=%.3fms share of job=%.3f", cl.name(), median(ms), median(ms)/median(cl.jobMS))
		}
	}
	rep.set("exec.run_setup_ms", geomean(restartMS), "ms")
	rep.set("exec.run_setup_frac", geomean(share), "ratio")
	return nil
}

// batchRates reports the per-cell median rates, their geomean per engine
// and overall; it returns the overall geomean. rep may be nil.
func batchRates(all []*batchApp, rep *report) float64 {
	var every []float64
	for _, eng := range batchEngines {
		var per []float64
		for _, a := range all {
			for _, cl := range a.cells {
				if cl.eng == eng {
					r := median(cl.rates)
					per = append(per, r)
					every = append(every, r)
					if rep != nil {
						rep.set("app."+a.name+"."+eng.key+"_items_per_s", r, "1/s")
					}
				}
			}
		}
		if rep != nil {
			rep.set(eng.key+"_items_per_s", geomean(per), "1/s")
		}
	}
	return geomean(every)
}

// setupLayers repeats the set-up of the programs builds make one layer
// call at a time, under spans — flatten, schedule, the rewrite under each
// of strats, VM compile, engine stamp — and reports each layer's median
// time per set-up pass, plus the partitioner's predicted imbalance over
// the lockstep strategies.
func setupLayers(cfg *config, builds []func() *ir.Program, strats []partition.Strategy, rep *report) error {
	layers := []string{"ir.Flatten", "sched.Compute", "partition.BuildExecPlan", "exec.NewShared", "exec.Shared.NewEngine"}
	perPass := map[string][]float64{}
	var imbalance []float64
	for pass := 0; pass < setupReps; pass++ {
		pid := cfg.tr.begin("setup.pass", 0, 0)
		var ids []int64
		for _, build := range builds {
			prog := build()
			var err error
			var g *ir.Graph
			var s *sched.Schedule
			ids = append(ids, cfg.tr.begin("ir.Flatten", pid, 0))
			g, err = ir.Flatten(prog)
			cfg.tr.end(ids[len(ids)-1])
			if err != nil {
				return err
			}
			ids = append(ids, cfg.tr.begin("sched.Compute", pid, 0))
			s, err = sched.Compute(g)
			cfg.tr.end(ids[len(ids)-1])
			if err != nil {
				return err
			}
			for _, strat := range strats {
				var plan *partition.ExecPlan
				ids = append(ids, cfg.tr.begin("partition.BuildExecPlan", pid, 0))
				plan, err = partition.BuildExecPlan(prog, g, s, partition.ExecPlanOptions{Strategy: strat, Workers: workers()})
				cfg.tr.end(ids[len(ids)-1])
				if err != nil {
					return err
				}
				if pass == 0 && !plan.Pipelined {
					imb, err := predictedImbalance(plan)
					if err != nil {
						return err
					}
					imbalance = append(imbalance, imb)
				}
			}
			var sh *exec.Shared
			ids = append(ids, cfg.tr.begin("exec.NewShared", pid, 0))
			sh, err = exec.NewShared(g, s, exec.BackendVM)
			cfg.tr.end(ids[len(ids)-1])
			if err != nil {
				return err
			}
			ids = append(ids, cfg.tr.begin("exec.Shared.NewEngine", pid, 0))
			_, err = sh.NewEngine(exec.Options{})
			cfg.tr.end(ids[len(ids)-1])
			if err != nil {
				return err
			}
		}
		cfg.tr.end(pid)
		sums := spanSums(cfg.tr, ids)
		for _, l := range layers {
			perPass[l] = append(perPass[l], sums[l])
		}
	}
	rep.set("ir.flatten_ms", median(perPass["ir.Flatten"]), "ms")
	rep.set("sched.compute_ms", median(perPass["sched.Compute"]), "ms")
	rep.set("partition.plan_ms", median(perPass["partition.BuildExecPlan"]), "ms")
	rep.set("vm.compile_ms", median(perPass["exec.NewShared"]), "ms")
	rep.set("partition.predicted_imbalance", geomean(imbalance), "ratio")
	return nil
}

// spanSums totals the durations of the given spans by name, in ms.
func spanSums(tr *tracer, ids []int64) map[string]float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := map[string]float64{}
	for _, id := range ids {
		s := tr.spans[id-1]
		out[s.Name] += float64(s.End-s.Start) / 1e6
	}
	return out
}

// predictedImbalance is the plan's busiest worker's predicted work over
// the mean, from the partitioner's own work estimates and assignment.
func predictedImbalance(plan *partition.ExecPlan) (float64, error) {
	g2, err := ir.Flatten(plan.Program)
	if err != nil {
		return 0, err
	}
	s2, err := sched.Compute(g2)
	if err != nil {
		return 0, err
	}
	assign := plan.Assign(g2, s2)
	loads := make([]float64, plan.Workers)
	for _, n := range g2.Nodes {
		if n.Filter != nil {
			loads[assign[n.ID]] += float64(plan.Work[n.Filter]) * float64(s2.Reps[n.ID])
		}
	}
	hi := 0.0
	for _, l := range loads {
		hi = max(hi, l)
	}
	if m := mean(loads); m > 0 {
		return hi / m, nil
	}
	return 1, nil
}

// batchLayers derives the per-layer metrics from the profiled jobs.
func batchLayers(cfg *config, traced []*batchApp, rep *report) {
	var inflation, peeks, firings, nsPerFiring []float64
	var busy, stall, skew []float64
	for _, a := range traced {
		var task, td *batchCell
		for _, cl := range a.cells {
			switch cl.eng.key {
			case "seq":
				var work, fired int64
				for _, p := range cl.prof {
					work += p.WorkNS
					fired += p.Firings
				}
				if fired > 0 {
					nsPerFiring = append(nsPerFiring, float64(work)/float64(fired))
				}
				continue
			case "task":
				task = cl
			case "taskdata":
				td = cl
			}
			b, st, sk := workerBalance(cl)
			busy, stall, skew = append(busy, b), append(stall, st), append(skew, sk)
		}
		tdWork, tdPeek, tdFire := profTotals(td)
		taskWork, _, _ := profTotals(task)
		items := float64(td.profItems)
		if taskWork > 0 && task.profItems > 0 && items > 0 {
			inflation = append(inflation, (tdWork/items)/(taskWork/float64(task.profItems)))
			peeks = append(peeks, tdPeek/items)
			firings = append(firings, tdFire/items)
		}
	}
	rep.set("fuse.work_inflation", geomean(inflation), "ratio")
	rep.set("fuse.peeks_per_output", geomean(peeks), "count")
	rep.set("fuse.firings_per_output", geomean(firings), "count")
	rep.set("vm.ns_per_firing", geomean(nsPerFiring), "ns")
	rep.set("exec.busy_frac", mean(busy), "ratio")
	rep.set("exec.stall_frac", mean(stall), "ratio")
	rep.set("exec.busy_skew", mean(skew), "ratio")
	sum := cfg.tr.summary()
	rep.set("exec.stamp_us", sum["exec.Shared.NewEngine"].MedianMS*1000, "us")

	// Checkpoint encoding on the sequential engine, after one job.
	var bytesPer, encodeUS []float64
	for _, a := range traced {
		cl := a.cells[0]
		for i := 0; i < 5; i++ {
			resetAll(a.recs)
			e, err := a.comp.EngineOpts(core.RunOptions{})
			if err == nil {
				err = e.Run(cl.iters)
			}
			var buf bytes.Buffer
			if err == nil {
				id := cfg.tr.begin("exec.Engine.WriteCheckpoint", 0, 0)
				t0 := time.Now()
				err = e.WriteCheckpoint(&buf, int64(cl.iters))
				encodeUS = append(encodeUS, float64(time.Since(t0))/1e3)
				cfg.tr.end(id)
			}
			rep.attempt(err)
			bytesPer = append(bytesPer, float64(buf.Len()))
		}
	}
	rep.set("exec.ckpt_bytes", median(bytesPer), "bytes")
	rep.set("exec.ckpt_encode_us", median(encodeUS), "us")
}

// profTotals sums work ns, peeks and firings over a cell's profile.
func profTotals(cl *batchCell) (work, peeks, firings float64) {
	if cl == nil {
		return 0, 0, 0
	}
	for _, p := range cl.prof {
		work += float64(p.WorkNS)
		peeks += float64(p.Peeked)
		firings += float64(p.Firings)
	}
	return work, peeks, firings
}

// workerBalance aggregates a mapped cell's per-node profile by worker
// (MappedEngine.WorkerOf): the mean busy and stall fractions of the
// traced jobs' wall time, and the busiest worker's work over the mean.
func workerBalance(cl *batchCell) (busyFrac, stallFrac, skew float64) {
	if cl.me == nil || cl.profWall <= 0 {
		return 0, 0, 0
	}
	busy := make([]float64, cl.me.Workers)
	stall := make([]float64, cl.me.Workers)
	for _, n := range cl.me.G.Nodes {
		w := cl.me.WorkerOf(n.ID)
		if w < 0 || w >= len(busy) {
			continue
		}
		p := cl.prof[n.Name]
		busy[w] += float64(p.WorkNS)
		stall[w] += float64(p.StallNS)
	}
	wall := float64(cl.profWall)
	hi := 0.0
	for _, b := range busy {
		hi = max(hi, b)
	}
	if m := mean(busy); m > 0 {
		skew = hi / m
	}
	return mean(busy) / wall, mean(stall) / wall, skew
}
