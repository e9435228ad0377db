package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamit/internal/core"
	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/lang"
	"streamit/internal/sched"
	"streamit/internal/serve"
	"streamit/internal/wfunc"
)

// The serve-open workload's constants. They were chosen once, from the
// commit that introduced the benchmark on a 2-core x86-64 machine, and are
// never re-derived per run. The traffic mix (fleet size, skew, request
// sizes, churn) is an assumption, not measured traffic. fixedRate is about
// a fifth of the sustained rate the ladder measured then (14.8k-18.7k
// req/s), so the fixed-rate latency is taken well below saturation.
const (
	fleetSize     = 128 // resident sessions, half of each program
	sampleN       = 8   // sessions whose whole streams the oracle checks
	smallIters    = 2   // iterations of a small request
	largeIters    = 16  // iterations of a large request
	largeShare    = 0.25
	closeShare    = 0.02 // requests that close their session and stamp a fresh one
	hotShare      = 0.2  // share of the fleet that is hot ...
	hotLoad       = 0.8  // ... and the share of requests it receives
	fixedRate     = 3000.0
	fixedShare    = 0.5 // of the run's seconds, at fixedRate
	ladderStep    = 500 * time.Millisecond
	latencyLimit  = 100 * time.Millisecond // p99 limit of the rate ladder
	lateBound     = 50 * time.Millisecond  // generator lateness that invalidates a run
	requestWait   = 10 * time.Second
	drainGrace    = time.Second
	snapshotReps  = 3
	continueIters = largeIters
)

// ladder is the offered-rate ladder, in requests/s; sustained_req_per_s
// comes from its highest step whose p99 stays under latencyLimit with no
// growing backlog.
var ladder = []float64{8000, 8640, 9330, 10080, 10880, 11750, 12690, 13710, 14810, 15990, 17270, 18650, 20150, 21760, 23500, 25380, 27410, 29600}

// servedProgram is one program of the fleet: its source, the source
// filter its sessions are fed through, and the stream geometry.
type servedProgram struct {
	name, file, source string
	src                string
	comp               *core.Compiled // standalone compile for the oracle
	srcNode, sinkNode  string
	pushPerFiring      int
	inPerIter, inInit  int
	outPerIter, outIni int
}

var servedPrograms = []servedProgram{
	{name: "fmradio", file: "examples/strprogs/fmradio.str", source: "Antenna"},
	{name: "bitonic", file: "examples/strprogs/bitonic.str", source: "Keys"},
}

func loadServed(root string) ([]*servedProgram, error) {
	var out []*servedProgram
	for _, p := range servedPrograms {
		p := p
		data, err := os.ReadFile(filepath.Join(root, p.file))
		if err != nil {
			return nil, err
		}
		p.src = string(data)
		if p.comp, err = core.CompileSource(p.src, "Main", core.Options{}); err != nil {
			return nil, fmt.Errorf("%s: %w", p.file, err)
		}
		g, s := p.comp.Graph, p.comp.Schedule
		var sinks []*ir.Node
		for _, n := range g.Nodes {
			if n.Kind != ir.NodeFilter {
				continue
			}
			if n.IsSource() && strings.SplitN(n.Name, "#", 2)[0] == p.source {
				p.srcNode = n.Name
				p.pushPerFiring = n.TotalPush()
				p.inPerIter = s.Reps[n.ID] * n.TotalPush()
				p.inInit = s.InitReps[n.ID] * n.TotalPush()
			}
			if n.IsSink() {
				sinks = append(sinks, n)
			}
		}
		if p.srcNode == "" || len(sinks) != 1 {
			return nil, fmt.Errorf("%s: want source %s and one sink, found %q and %d sinks", p.file, p.source, p.srcNode, len(sinks))
		}
		p.sinkNode = sinks[0].Name
		p.outPerIter = s.Reps[sinks[0].ID] * sinks[0].TotalPop()
		p.outIni = s.InitReps[sinks[0].ID] * sinks[0].TotalPop()
		out = append(out, &p)
	}
	return out, nil
}

// slot is one resident session of the fleet and the client state that
// goes with it. Only the slot's own goroutine touches it during a phase.
type slot struct {
	idx     int
	prog    *servedProgram
	sess    *serve.Session
	gen     int // sessions stamped in this slot so far
	rng     *rand.Rand
	inited  bool  // the first request (which feeds the init input) is done
	done    int64 // iterations completed
	sampled bool
	in, out []float64 // whole streams of a sampled session
}

// request is one generated request and its outcome.
type request struct {
	id      int64
	slot    int
	iters   int
	close   bool
	at      time.Duration // due time from the phase's start
	due     time.Time
	sent    time.Time
	end     time.Time
	err     error
	refused bool
	dropped bool // abandoned by the benchmark at the end of an overloaded step
}

func (r *request) latency() time.Duration { return r.end.Sub(r.due) }

// fleet is the server and its resident sessions.
type fleet struct {
	cfg     *config
	srv     *serve.Server
	progs   []*servedProgram
	slots   []*slot
	profile bool
	nextReq atomic.Int64
}

func newServer() *serve.Server { return serve.New(serve.Config{Workers: workers()}) }

// setupFleet loads both programs into a fresh server (the second load of
// the same text is the compile cache's hit) and stamps the fleet.
func setupFleet(cfg *config, progs []*servedProgram, profile bool) (*fleet, error) {
	f := &fleet{cfg: cfg, srv: newServer(), progs: progs, profile: profile}
	for _, p := range progs {
		for k := 0; k < 2; k++ {
			if _, err := f.srv.LoadSource(p.name, p.src, "Main"); err != nil {
				f.srv.Close()
				return nil, fmt.Errorf("loading %s: %w", p.file, err)
			}
		}
	}
	size := fleetSize
	if cfg.small {
		size = 8
	}
	for i := 0; i < size; i++ {
		sl := &slot{idx: i, prog: progs[i%len(progs)]}
		if err := f.stamp(sl, 0); err != nil {
			f.srv.Close()
			return nil, err
		}
		f.slots = append(f.slots, sl)
	}
	for _, i := range cfg.rng.Perm(len(f.slots))[:min(sampleN, len(f.slots))] {
		f.slots[i].sampled = true
	}
	return f, nil
}

// stamp opens a fresh session in sl.
func (f *fleet) stamp(sl *slot, parent int64) error {
	var s *serve.Session
	err := f.cfg.tr.call("serve.Server.NewSession", parent, 0, func() (err error) {
		s, err = f.srv.NewSession(serve.SessionOptions{
			Program: sl.prog.name, Source: sl.prog.source, Tenant: sl.prog.name, Profile: f.profile,
		})
		return err
	})
	if err != nil {
		return err
	}
	sl.sess = s
	sl.gen++
	sl.rng = rand.New(rand.NewSource(f.cfg.seed*1_000_003 + int64(sl.idx)*7919 + int64(sl.gen)))
	sl.inited, sl.done = false, 0
	sl.in, sl.out = sl.in[:0], sl.out[:0]
	return nil
}

// input generates n seeded input items for sl's program.
func (sl *slot) input(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		if sl.prog.name == "bitonic" {
			vals[i] = float64(sl.rng.Intn(2048))
		} else {
			vals[i] = sl.rng.Float64()*2 - 1
		}
	}
	return vals
}

// serveRequest feeds, runs, waits for and drains one request on sl.
func (f *fleet) serveRequest(sl *slot, r *request) error {
	tr := f.cfg.tr
	root := tr.begin("serve.request", 0, r.id)
	defer tr.end(root)
	n := r.iters * sl.prog.inPerIter
	wantOut := r.iters * sl.prog.outPerIter
	if !sl.inited {
		n += sl.prog.inInit
		wantOut += sl.prog.outIni
	}
	vals := sl.input(n)
	err := tr.call("serve.Session.Feed", root, r.id, func() error {
		got, err := sl.sess.Feed(vals)
		if err == nil && got != len(vals) {
			err = fmt.Errorf("fed %d of %d items", got, len(vals))
		}
		return err
	})
	if err != nil {
		return err
	}
	if sl.sampled {
		sl.in = append(sl.in, vals...)
	}
	if err := tr.call("serve.Session.Run", root, r.id, func() error { return sl.sess.Run(r.iters) }); err != nil {
		if errors.Is(err, serve.ErrIterBacklog) {
			r.refused = true
		}
		return err
	}
	target := sl.done + int64(r.iters)
	if err := tr.call("serve.Session.WaitDone", root, r.id, func() error { return sl.sess.WaitDone(target, requestWait) }); err != nil {
		return err
	}
	sl.done = target
	sl.inited = true
	var out []float64
	tr.call("serve.Session.Drain", root, r.id, func() error { out = sl.sess.Drain(0); return nil })
	if sl.sampled {
		sl.out = append(sl.out, out...)
	}
	if len(out) != wantOut {
		return fmt.Errorf("session %d: drained %d items, want %d", sl.sess.ID, len(out), wantOut)
	}
	if r.close {
		if sl.sampled {
			if err := sl.verify(); err != nil {
				return err
			}
		}
		sl.sess.Close()
		return f.stamp(sl, root)
	}
	return nil
}

// verify runs sl's whole fed input through a standalone sequential
// interpreter engine and compares its output with what the session
// delivered, bit for bit.
func (sl *slot) verify() error {
	p := sl.prog
	e, err := p.comp.EngineOpts(core.RunOptions{Backend: exec.BackendInterp})
	if err != nil {
		return err
	}
	pos := 0
	in := sl.in
	var failed error
	if err := e.OverrideWork(p.srcNode, func(_, out wfunc.Tape) {
		for i := 0; i < p.pushPerFiring; i++ {
			if pos >= len(in) {
				failed = fmt.Errorf("reference ran past the %d fed items", len(in))
				out.Push(0)
				continue
			}
			out.Push(in[pos])
			pos++
		}
	}); err != nil {
		return err
	}
	var ref []float64
	if err := e.TapSink(p.sinkNode, func(v float64) { ref = append(ref, v) }); err != nil {
		return err
	}
	if err := e.Run(int(sl.done)); err != nil {
		return err
	}
	if failed != nil {
		return failed
	}
	if err := sameBits(sl.out, ref); err != nil {
		return fmt.Errorf("%s session %d differs from the sequential interpreter: %w", p.name, sl.sess.ID, err)
	}
	return nil
}

// phase is one open-loop stretch at a fixed offered rate.
type phase struct {
	reqs []*request
	late []float64 // generator lateness per request, ms
	dur  time.Duration
}

// genPhase draws a seeded Poisson arrival schedule at rate req/s for dur.
func (f *fleet) genPhase(rate float64, dur time.Duration) *phase {
	rng := f.cfg.rng
	hot := max(1, int(hotShare*float64(len(f.slots))))
	order := rng.Perm(len(f.slots)) // the first hot slots are this phase's hot set
	ph := &phase{dur: dur}
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			break
		}
		r := &request{
			id:    f.nextReq.Add(1),
			slot:  order[hot+rng.Intn(len(order)-hot)],
			iters: smallIters,
			close: rng.Float64() < closeShare,
		}
		if rng.Float64() < hotLoad {
			r.slot = order[rng.Intn(hot)]
		}
		if rng.Float64() < largeShare {
			r.iters = largeIters
		}
		r.at = time.Duration(t * float64(time.Second))
		ph.reqs = append(ph.reqs, r)
	}
	return ph
}

// runPhase sends the phase's requests at their due times, each slot's
// requests in order on the slot's own goroutine, and waits for them.
// Requests still queued drainGrace after the last send are abandoned.
func (f *fleet) runPhase(ph *phase) {
	queues := make([][]*request, len(f.slots))
	for _, r := range ph.reqs {
		queues[r.slot] = append(queues[r.slot], r)
	}
	chans := make([]chan *request, len(f.slots))
	var abandon atomic.Bool
	var wg sync.WaitGroup
	for i, q := range queues {
		if len(q) == 0 {
			continue
		}
		chans[i] = make(chan *request, len(q)) // sized to the sends: the generator never blocks
		wg.Add(1)
		go func(sl *slot, ch chan *request) {
			defer wg.Done()
			for r := range ch {
				if abandon.Load() {
					r.dropped = true
					continue
				}
				r.err = f.serveRequest(sl, r)
				r.end = time.Now()
			}
		}(f.slots[i], chans[i])
	}
	base := time.Now()
	for _, r := range ph.reqs {
		r.due = base.Add(r.at)
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		r.sent = time.Now()
		ph.late = append(ph.late, float64(r.sent.Sub(r.due))/1e6)
		chans[r.slot] <- r
	}
	for _, ch := range chans {
		if ch != nil {
			close(ch)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Until(base.Add(ph.dur + drainGrace))):
		abandon.Store(true)
		<-done
	}
}

// latencies returns the phase's request latencies in ms, with abandoned
// and failed requests as +Inf (they miss any limit), and how long after
// the send window closed at end the last request completed: a backlog
// that grew during the window takes longer than the latency limit to
// clear.
func (ph *phase) latencies(end time.Time) (lat []float64, drain time.Duration) {
	for _, r := range ph.reqs {
		if r.dropped || r.err != nil {
			lat = append(lat, math.Inf(1))
			drain = max(drain, drainGrace)
		} else {
			lat = append(lat, float64(r.latency())/1e6)
			drain = max(drain, r.end.Sub(end))
		}
	}
	return lat, drain
}

// windowedP99 returns the phase's median request latency and the median,
// over the phase's whole one-second windows (by due time), of each
// window's p99 — a tail that one stall of the machine cannot move on its
// own — in ms, with the window count. Failed and abandoned requests count
// as +Inf.
func (ph *phase) windowedP99() (p50, p99 float64, windows int) {
	windows = max(1, int(ph.dur/time.Second))
	per := make([][]float64, windows)
	var all []float64
	for _, r := range ph.reqs {
		w := min(int(r.at/time.Second), windows-1)
		v := math.Inf(1)
		if !r.dropped && r.err == nil {
			v = float64(r.latency()) / 1e6
		}
		per[w] = append(per[w], v)
		all = append(all, v)
	}
	var tails []float64
	for _, xs := range per {
		tails = append(tails, quantile(xs, 0.99))
	}
	return quantile(all, 0.5), median(tails), windows
}

// climbLadder offers each rate of steps in turn for stepDur, stopping at
// the first step that misses, and returns the offered rate of the highest
// step that met the latency limit with no growing backlog (0 when none
// did).
func climbLadder(steps []float64, stepDur time.Duration, offer func(float64, time.Duration) (*phase, time.Time), rep *report) float64 {
	sustained := 0.0
	for _, offered := range steps {
		ph, start := offer(offered, stepDur)
		lat, drain := ph.latencies(start.Add(stepDur))
		p99 := quantile(lat, 0.99)
		ok := p99 <= float64(latencyLimit)/1e6 && drain <= latencyLimit
		rep.notef("ladder %5.0f req/s: %d requests, p99 %.2f ms, backlog cleared %.1f ms after the window, pass=%v", offered, len(ph.reqs), p99, float64(drain)/1e6, ok)
		if !ok {
			break
		}
		sustained = offered
	}
	return sustained
}

// account counts the phase's requests as attempted operations.
func (ph *phase) account(rep *report) (refused int) {
	for _, r := range ph.reqs {
		if r.dropped {
			continue
		}
		rep.attempt(r.err)
		if r.refused {
			refused++
		}
	}
	return refused
}

func (f *fleet) close() { f.srv.Close() }

func runServeOpen(cfg *config) (*report, error) {
	rep := &report{}
	tr := cfg.tr // spans only in the traced half
	cfg.tr = nil
	progs, err := loadServed(cfg.root)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var fl *fleet
	for i := 0; i < setupReps; i++ {
		if fl != nil {
			fl.close()
		}
		runtime.GC() // every set-up starts from a collected heap
		t0 := time.Now()
		if fl, err = setupFleet(cfg, progs, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { fl.close() }()
	rep.set("setup_s", median(setups), "s")

	var late []float64
	var requests int64
	var refused int
	run := func(f *fleet, rate float64, dur time.Duration) (*phase, time.Time) {
		ph := f.genPhase(rate, dur)
		start := time.Now()
		f.runPhase(ph)
		late = append(late, ph.late...)
		requests += int64(len(ph.reqs))
		refused += ph.account(rep)
		return ph, start
	}

	// Fixed offered rate: the latency metrics.
	fixedDur := time.Duration(fixedShare * cfg.seconds * float64(time.Second))
	ph, _ := run(fl, fixedRate, fixedDur)
	p50, p99, windows := ph.windowedP99()
	rep.set("latency_p50_ms", p50, "ms")
	rep.set("req_p50_ms", p50, "ms")
	rep.set("req_p99_ms", p99, "ms")
	rep.notef("fixed rate %.0f req/s: %d requests; req_p99_ms is the median p99 of %d one-second windows of about %.0f requests", fixedRate, len(ph.reqs), windows, fixedRate)
	st := fl.srv.Stats()
	rep.set("serve.iter_p50_us", float64(st.LatencyNS.P50)/1e3, "us")
	rep.set("serve.iter_p99_us", float64(st.LatencyNS.P99)/1e3, "us")
	var waits []float64
	for _, r := range ph.reqs {
		if !r.dropped && r.err == nil {
			waits = append(waits, float64(r.latency())/1e6-float64(r.iters)*float64(st.LatencyNS.P50)/1e6)
		}
	}
	rep.set("serve.queue_wait_ms", median(waits), "ms")
	rep.set("serve.steals_per_req", float64(st.Pool.Steals)/float64(len(ph.reqs)), "count")
	rep.set("resident_mb", residentMiB(), "MiB")

	if cfg.traced {
		// The same offered load on a fleet with profiled sessions and spans.
		cfg.tr = tr
		tf, err := setupFleet(cfg, progs, true)
		if err != nil {
			return nil, err
		}
		tph, _ := run(tf, fixedRate, fixedDur)
		tp50, _, _ := tph.windowedP99()
		rep.set("obs.trace_overhead_frac", tp50/p50-1, "ratio")
		var work, fired int64
		for _, sl := range tf.slots {
			for _, p := range sl.sess.Profile().Snapshot() {
				work += p.WorkNS
				fired += p.Firings
			}
		}
		if fired > 0 {
			rep.set("vm.ns_per_firing", float64(work)/float64(fired), "ns")
		}
		for _, sl := range tf.slots {
			if sl.sampled {
				rep.attempt(sl.verify())
			}
		}
		tf.close()
		if err := serveSetupLayers(cfg, progs, rep); err != nil {
			return nil, err
		}
	} else {
		steps, stepDur := ladder, ladderStep
		if cfg.small {
			steps, stepDur = []float64{200, 400}, ladderStep/5
		}
		sustained := climbLadder(steps, stepDur, func(rate float64, dur time.Duration) (*phase, time.Time) {
			return run(fl, rate, dur)
		}, rep)
		rep.set("sustained_req_per_s", sustained, "1/s")
		rep.set("throughput_per_s", sustained, "1/s")
	}

	// Snapshot the fleet, restore it into fresh servers, and continue the
	// sampled sessions on the last one.
	if err := snapshotRestore(cfg, fl, rep); err != nil {
		return nil, err
	}
	rep.set("serve.rejected_frac", float64(refused)/float64(max(requests, 1)), "ratio")
	_, hits, _ := fl.srv.CacheStats()
	rep.set("core.cache_hits", float64(hits), "count")
	rep.set("gen.late_p99_ms", quantile(late, 0.99), "ms")
	rep.set("gen.requests", float64(requests), "count")
	if lateP99 := quantile(late, 0.99); lateP99 > float64(lateBound)/1e6 {
		return nil, fmt.Errorf("invalid run: the generator ran %.1f ms late at p99 (bound %v)", lateP99, lateBound)
	}
	return rep, nil
}

// snapshotRestore times Server.Snapshot of the whole fleet and
// Server.Restore into fresh servers, then continues every sampled session
// on the last restored server and checks its whole stream.
func snapshotRestore(cfg *config, fl *fleet, rep *report) error {
	dir, err := os.MkdirTemp(cfg.out, "serve-snapshot-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var snaps, restores []float64
	var sum serve.SnapshotSummary
	for i := 0; i < snapshotReps; i++ {
		id := cfg.tr.begin("serve.Server.Snapshot", 0, 0)
		t0 := time.Now()
		sum, err = fl.srv.Snapshot(dir)
		snaps = append(snaps, time.Since(t0).Seconds())
		cfg.tr.end(id)
		rep.attempt(err)
		if err != nil {
			return err
		}
	}
	rep.set("snapshot_s", median(snaps), "s")
	rep.set("serve.snapshot_bytes_per_session", float64(sum.Bytes)/float64(max(sum.Sessions, 1)), "bytes")

	// Session checkpoint encoding, one sampled session at a time.
	var ckptBytes, ckptUS []float64
	for _, sl := range fl.slots {
		if !sl.sampled {
			continue
		}
		var buf bytes.Buffer
		id := cfg.tr.begin("serve.Session.Checkpoint", 0, 0)
		t0 := time.Now()
		err := sl.sess.Checkpoint(&buf)
		ckptUS = append(ckptUS, float64(time.Since(t0))/1e3)
		cfg.tr.end(id)
		rep.attempt(err)
		ckptBytes = append(ckptBytes, float64(buf.Len()))
	}
	rep.set("exec.ckpt_bytes", median(ckptBytes), "bytes")
	rep.set("exec.ckpt_encode_us", median(ckptUS), "us")
	// The share of the snapshot that checkpoint encoding explains; the
	// rest is the snapshot's file writes and bookkeeping.
	rep.set("serve.snapshot_encode_frac", float64(sum.Sessions)*median(ckptUS)/1e6/median(snaps), "ratio")

	var last *serve.Server
	for i := 0; i < snapshotReps; i++ {
		if last != nil {
			last.Close()
		}
		last = newServer()
		for _, p := range fl.progs {
			if _, err := last.LoadSource(p.name, p.src, "Main"); err != nil {
				last.Close()
				return err
			}
		}
		id := cfg.tr.begin("serve.Server.Restore", 0, 0)
		t0 := time.Now()
		rs, err := last.Restore(dir)
		restores = append(restores, time.Since(t0).Seconds())
		cfg.tr.end(id)
		if err == nil && (len(rs.Failed) > 0 || rs.Restored != sum.Sessions) {
			err = fmt.Errorf("restored %d of %d sessions (%v)", rs.Restored, sum.Sessions, rs.Failed)
		}
		rep.attempt(err)
		if err != nil {
			last.Close()
			return err
		}
	}
	defer last.Close()
	rep.set("restore_s", median(restores), "s")

	restored := &fleet{cfg: cfg, srv: last, progs: fl.progs}
	for _, sl := range fl.slots {
		if !sl.sampled {
			continue
		}
		s := last.Session(sl.sess.ID)
		if s == nil {
			rep.attempt(fmt.Errorf("session %d missing after restore", sl.sess.ID))
			continue
		}
		sl.sess = s
		r := &request{id: restored.nextReq.Add(1), slot: sl.idx, iters: continueIters}
		err := restored.serveRequest(sl, r)
		if err == nil {
			err = sl.verify()
		}
		rep.attempt(err)
	}
	return nil
}

// serveSetupLayers repeats the serve set-up path one layer call at a time
// under spans: parse and elaborate, flatten, schedule, VM compile, stamp.
func serveSetupLayers(cfg *config, progs []*servedProgram, rep *report) error {
	layers := []string{"lang.ParseAndElaborate", "ir.Flatten", "sched.Compute", "exec.NewShared", "exec.Shared.NewEngine"}
	perPass := map[string][]float64{}
	var stamps []float64
	for pass := 0; pass < setupReps; pass++ {
		pid := cfg.tr.begin("setup.pass", 0, 0)
		var ids []int64
		for _, p := range progs {
			ids = append(ids, cfg.tr.begin("lang.ParseAndElaborate", pid, 0))
			prog, err := lang.ParseAndElaborate(p.src, "Main")
			cfg.tr.end(ids[len(ids)-1])
			if err != nil {
				return err
			}
			ids = append(ids, cfg.tr.begin("ir.Flatten", pid, 0))
			g, err := ir.Flatten(prog)
			cfg.tr.end(ids[len(ids)-1])
			if err != nil {
				return err
			}
			ids = append(ids, cfg.tr.begin("sched.Compute", pid, 0))
			s, err := sched.Compute(g)
			cfg.tr.end(ids[len(ids)-1])
			if err != nil {
				return err
			}
			ids = append(ids, cfg.tr.begin("exec.NewShared", pid, 0))
			sh, err := exec.NewShared(g, s, exec.BackendVM)
			cfg.tr.end(ids[len(ids)-1])
			if err != nil {
				return err
			}
			for k := 0; k < 16; k++ {
				id := cfg.tr.begin("exec.Shared.NewEngine", pid, 0)
				t0 := time.Now()
				_, err := sh.NewEngine(exec.Options{})
				stamps = append(stamps, float64(time.Since(t0))/1e3)
				cfg.tr.end(id)
				if err != nil {
					return err
				}
			}
		}
		cfg.tr.end(pid)
		sums := spanSums(cfg.tr, ids)
		for _, l := range layers {
			perPass[l] = append(perPass[l], sums[l])
		}
	}
	rep.set("lang.parse_elab_ms", median(perPass["lang.ParseAndElaborate"]), "ms")
	rep.set("ir.flatten_ms", median(perPass["ir.Flatten"]), "ms")
	rep.set("sched.compute_ms", median(perPass["sched.Compute"]), "ms")
	rep.set("vm.compile_ms", median(perPass["exec.NewShared"]), "ms")
	rep.set("exec.stamp_us", median(stamps), "us")
	return nil
}
