package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"streamit/internal/core"
	"streamit/internal/dist"
	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/partition"
)

// The dist-epoch workload's constants, chosen once like the others.
const (
	distApp    = "FMRadio"
	distShards = 2
	distPer    = 1 // engine workers per shard
	distEpoch  = 4 // iterations per coordinated barrier
	distIters  = 2000
	// distSetupBurst is how many sharded set-ups one setup_s sample
	// averages. A single set-up is bimodal: when the lower shard dials its
	// peer before the peer has installed the generation, the link handshake
	// redials after a jittered backoff of several ms. The share of set-ups
	// that lose this race is near one half, so the median of single
	// set-ups flips between the two modes from run to run; the median of
	// burst means does not.
	distSetupBurst = 6
)

// distRun is one sharded run's observations.
type distRun struct {
	setup    time.Duration // NewCoordinator to the first committed barrier
	join     time.Duration // Listen to the first committed barrier
	rate     float64       // iterations/s between the first and last barrier
	epochs   []float64     // barrier-to-barrier intervals, ms
	res      *dist.Result
	joinErrs []error
}

// runSharded drives one distributed run with in-process shards over
// loopback TCP. onBarrier, when set, runs at every committed barrier.
func runSharded(cfg *config, iters int, parent int64, onBarrier func(int64)) (*distRun, error) {
	reg := dist.SuiteRegistry()
	var marks []time.Time
	var iterAt []int64
	var runSpan, lastEpoch int64
	dc := dist.Config{
		Shards: distShards, PerShard: distPer, Strategy: partition.StratTask,
		Epoch: distEpoch, TapSinks: true, Registry: reg,
		Log: func(string, ...any) {},
		OnBarrier: func(it int64) {
			now := time.Now()
			if n := len(marks); n > 0 {
				cfg.tr.end(lastEpoch)
			}
			marks = append(marks, now)
			iterAt = append(iterAt, it)
			if onBarrier != nil {
				onBarrier(it)
			}
			lastEpoch = 0
			if it < int64(iters) {
				lastEpoch = cfg.tr.begin("dist.epoch", runSpan, 0)
			}
		},
	}
	t0 := time.Now()
	var co *dist.Coordinator
	err := cfg.tr.call("dist.NewCoordinator", parent, 0, func() (err error) {
		co, err = dist.NewCoordinator(dist.Spec{App: distApp}, dc)
		return err
	})
	if err != nil {
		return nil, err
	}
	var addr string
	err = cfg.tr.call("dist.Coordinator.Listen", parent, 0, func() (err error) {
		addr, err = co.Listen("127.0.0.1:0")
		return err
	})
	if err != nil {
		co.Close()
		return nil, err
	}
	listened := time.Now()
	run := &distRun{joinErrs: make([]error, distShards)}
	var wg sync.WaitGroup
	for i := 0; i < distShards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run.joinErrs[i] = cfg.tr.call("dist.Join", parent, 0, func() error {
				return dist.Join(addr, dist.ShardOptions{
					Name: fmt.Sprintf("shard%d", i), Registry: reg,
					// In-process shards: a crash must not exit the benchmark.
					CrashFn: func() {},
					Log:     func(string, ...any) {},
				})
			})
		}(i)
	}
	runSpan = cfg.tr.begin("dist.Coordinator.Run", parent, 0)
	run.res, err = co.Run(iters)
	cfg.tr.end(lastEpoch)
	cfg.tr.end(runSpan)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if len(marks) < 2 {
		return nil, fmt.Errorf("dist run committed %d barriers", len(marks))
	}
	run.setup = marks[0].Sub(t0)
	run.join = marks[0].Sub(listened)
	n := len(marks) - 1
	run.rate = float64(iterAt[n]-iterAt[0]) / marks[n].Sub(marks[0]).Seconds()
	for i := 1; i < len(marks); i++ {
		run.epochs = append(run.epochs, float64(marks[i].Sub(marks[i-1]))/1e6)
	}
	return run, nil
}

// distReference runs the same program on the sequential interpreter with
// every sink tapped, for iters steady iterations, and returns each sink's
// steady-state stream by node name.
func distReference(iters int) (map[string][]float64, error) {
	prog := dist.SuiteRegistry()[distApp]()
	c, err := core.Compile(prog, core.Options{})
	if err != nil {
		return nil, err
	}
	e, err := c.EngineOpts(core.RunOptions{Backend: exec.BackendInterp})
	if err != nil {
		return nil, err
	}
	ref := map[string][]float64{}
	skip := map[string]int{}
	for _, n := range c.Graph.Nodes {
		if n.Kind != ir.NodeFilter || !n.IsSink() || n.IsSource() {
			continue
		}
		name := n.Name
		skip[name] = c.Schedule.InitReps[n.ID] * n.TotalPop()
		if err := e.TapSink(name, func(v float64) { ref[name] = append(ref[name], v) }); err != nil {
			return nil, err
		}
	}
	if err := e.Run(iters); err != nil {
		return nil, err
	}
	for name, k := range skip {
		ref[name] = ref[name][k:]
	}
	return ref, nil
}

// checkDist compares a run's committed sink streams with the reference and
// checks the run never had to recover.
func checkDist(run *distRun, ref map[string][]float64) error {
	for i, err := range run.joinErrs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if run.res.Generations != 1 {
		return fmt.Errorf("run installed %d generations (recoveries %d)", run.res.Generations, run.res.Recoveries)
	}
	if len(run.res.Outputs) != len(ref) {
		return fmt.Errorf("%d sink streams, reference has %d", len(run.res.Outputs), len(ref))
	}
	for name, want := range ref {
		if err := sameBits(run.res.Outputs[name], want); err != nil {
			return fmt.Errorf("sink %s differs from the sequential interpreter: %w", name, err)
		}
	}
	return nil
}

func runDistEpoch(cfg *config) (*report, error) {
	rep := &report{}
	tr := cfg.tr // spans only in the traced half
	cfg.tr = nil
	iters := distIters
	if cfg.small {
		iters = 40
	}
	ref, err := distReference(iters)
	if err != nil {
		return nil, err
	}
	// Warm-up run, checked: its midpoint barrier is the steady point where
	// the live heap is measured.
	var resident float64
	warm, err := runSharded(cfg, iters, 0, func(it int64) {
		if resident == 0 && it >= int64(iters/2) {
			resident = residentMiB()
		}
	})
	if err != nil {
		return nil, err
	}
	rep.attempt(checkDist(warm, ref))
	rep.set("resident_mb", resident, "MiB")

	setups, err := measureDistSetup(cfg, rep)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", median(setups), "s")

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced {
		budget /= 2
	}
	runs, err := measureDist(cfg, iters, budget, ref, rep)
	if err != nil {
		return nil, err
	}
	var joins, rates, epochs, gens []float64
	for _, r := range runs {
		joins = append(joins, float64(r.join)/1e6)
		rates = append(rates, r.rate)
		epochs = append(epochs, r.epochs...)
		gens = append(gens, float64(r.res.Generations))
	}
	rate := median(rates)
	rep.set("throughput_per_s", rate, "1/s")
	rep.set("sharded_iters_per_s", rate, "1/s")
	rep.set("latency_p50_ms", median(epochs), "ms")
	rep.set("dist.epoch_p50_ms", median(epochs), "ms")
	rep.set("dist.epoch_p99_ms", quantile(epochs, 0.99), "ms")
	rep.set("dist.join_ms", median(joins), "ms")
	rep.set("dist.image_bytes", float64(len(runs[len(runs)-1].res.FinalImage)), "bytes")
	rep.set("dist.generations", mean(gens), "count")
	rep.notef("%d sharded runs of %d iterations; %d epochs of %d iterations; dist.epoch_p99_ms has %d epochs beyond it",
		len(runs), iters, len(epochs), distEpoch, len(epochs)/100)
	if !cfg.traced {
		return rep, nil
	}

	// Traced half: the same runs under spans, then the same plan in one
	// process for the distribution overhead.
	cfg.tr = tr
	prog := dist.SuiteRegistry()[distApp]
	if err := setupLayers(cfg, []func() *ir.Program{prog}, []partition.Strategy{partition.StratTask}, rep); err != nil {
		return nil, err
	}
	traced, err := measureDist(cfg, iters, budget, ref, rep)
	if err != nil {
		return nil, err
	}
	var trates []float64
	for _, r := range traced {
		trates = append(trates, r.rate)
	}
	rep.set("obs.trace_overhead_frac", rate/median(trates)-1, "ratio")
	single, encodeUS, ckpt, err := singleProcess(cfg, iters)
	rep.attempt(err)
	if err != nil {
		return rep, nil
	}
	rep.set("dist.overhead_frac", 1-rate/single, "ratio")
	rep.set("exec.ckpt_bytes", float64(ckpt), "bytes")
	rep.set("exec.ckpt_encode_us", encodeUS, "us")
	return rep, nil
}

// measureDistSetup times setupReps bursts of distSetupBurst back-to-back
// sharded set-ups, each a checked two-epoch run timed from NewCoordinator
// to its first committed barrier, and returns each burst's mean set-up in
// seconds. It notes the spread of the single set-ups.
func measureDistSetup(cfg *config, rep *report) ([]float64, error) {
	iters := 2 * distEpoch
	ref, err := distReference(iters)
	if err != nil {
		return nil, err
	}
	var means, single []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		var sum time.Duration
		for j := 0; j < distSetupBurst; j++ {
			r, err := runSharded(cfg, iters, 0, nil)
			if err != nil {
				rep.attempt(err)
				return nil, err
			}
			rep.attempt(checkDist(r, ref))
			sum += r.setup
			single = append(single, r.setup.Seconds()*1e3)
		}
		means = append(means, sum.Seconds()/distSetupBurst)
	}
	rep.notef("%d single set-ups, ms: q10 %.2f, q25 %.2f, median %.2f, q75 %.2f, q90 %.2f; setup_s is the median of %d burst means",
		len(single), quantile(single, 0.1), quantile(single, 0.25), median(single), quantile(single, 0.75), quantile(single, 0.9), len(means))
	return means, nil
}

// measureDist repeats checked sharded runs until the budget is spent (at
// least three).
func measureDist(cfg *config, iters int, budget time.Duration, ref map[string][]float64, rep *report) ([]*distRun, error) {
	var runs []*distRun
	deadline := time.Now().Add(budget)
	for len(runs) < 3 || time.Now().Before(deadline) {
		id := cfg.tr.begin("dist.run", 0, 0)
		r, err := runSharded(cfg, iters, id, nil)
		cfg.tr.end(id)
		if err != nil {
			rep.attempt(err)
			return nil, err
		}
		err = checkDist(r, ref)
		rep.attempt(err)
		if err == nil {
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no sharded run passed its check")
	}
	return runs, nil
}

// singleProcess runs the same task plan on one in-process mapped engine
// with all workers local, returning its iterations/s (median of three) and
// the time and size of a coordinated checkpoint after the last run.
func singleProcess(cfg *config, iters int) (rate, encodeUS float64, size int, err error) {
	c, err := core.Compile(dist.SuiteRegistry()[distApp](), core.Options{})
	if err != nil {
		return 0, 0, 0, err
	}
	me, err := c.MappedEngineOpts(core.RunOptions{MapStrategy: partition.StratTask, Workers: distShards * distPer})
	if err != nil {
		return 0, 0, 0, err
	}
	var rates []float64
	for i := 0; i < 3; i++ {
		id := cfg.tr.begin("exec.MappedEngine.Run", 0, 0)
		t0 := time.Now()
		err := me.Run(iters)
		rates = append(rates, float64(iters)/time.Since(t0).Seconds())
		cfg.tr.end(id)
		if err != nil {
			return 0, 0, 0, err
		}
	}
	var buf bytes.Buffer
	id := cfg.tr.begin("exec.MappedEngine.WriteCheckpoint", 0, 0)
	t0 := time.Now()
	err = me.WriteCheckpoint(&buf, int64(iters))
	encodeUS = float64(time.Since(t0)) / 1e3
	cfg.tr.end(id)
	return median(rates), encodeUS, buf.Len(), err
}
