package partition

import (
	"fmt"
	"runtime"
	"sort"

	"streamit/internal/fuse"
	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// ExecPlanOptions configure the executable rewrite of a program for the
// mapped host engine.
type ExecPlanOptions struct {
	// Strategy selects the transformation: StratTask (no rewrite),
	// StratFineData (replicate every stateless filter), StratCoarseData
	// (fuse stateless regions, then judicious fission), or the pipelined
	// variants StratSWP (no rewrite, stage-assigned) and StratCombined
	// (coarsen+fission plus stages). The simulation-only space strategy is
	// rejected.
	Strategy Strategy
	// Workers is the target core count; 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// MeasuredWorkNS supplies profiled per-firing work (see
	// BuildOptions.MeasuredWorkNS); it biases both the fission granularity
	// heuristic and the worker assignment.
	MeasuredWorkNS map[string]int64
}

// ExecPlan is an executable mapping plan: the elaborated IR rewritten by
// fusion and executable fission, plus per-filter work estimates for
// assigning the flattened result to worker cores. Unlike Plan (which
// feeds the machine simulator), an ExecPlan's Program runs on the real
// engines and must be bit-identical to the original.
type ExecPlan struct {
	Strategy Strategy
	Workers  int
	// Program is the rewritten program (the original when Strategy is
	// StratTask). Rewritten filters are fresh; untouched filters are shared
	// with the input program.
	Program *ir.Program
	// Work estimates cycles per firing for filters of Program, on the
	// static estimator's scale (measured-work rescaled when provided).
	// Filters synthesized by fusion/fission carry their constituents' work.
	Work map[*ir.Filter]int64
	// Segments maps every filter the rewrite synthesized — fused segments
	// and fission replicas — to the original filters it runs, in pipeline
	// order.
	Segments map[*ir.Filter][]*ir.Filter
	// Fused counts filters folded away by coarsening; Replicas counts
	// fission replicas created.
	Fused    int
	Replicas int
	// Pipelined marks software-pipelined plans (StratSWP/StratCombined):
	// the mapped engine runs them with stage-skewed workers, using
	// PipelineStages over the rewritten flat graph for the stage map.
	Pipelined bool
}

// BuildExecPlan rewrites prog for execution on workers cores. g and s are
// the elaborated flat graph and schedule of prog (used for work
// estimation only; the rewritten program is re-flattened by the caller).
func BuildExecPlan(prog *ir.Program, g *ir.Graph, s *sched.Schedule, opts ExecPlanOptions) (*ExecPlan, error) {
	switch opts.Strategy {
	case StratTask, StratFineData, StratCoarseData, StratSWP, StratCombined:
	default:
		return nil, fmt.Errorf("partition: strategy %q is not host-executable (use %q, %q, %q, %q, or %q)",
			opts.Strategy, StratTask, StratFineData, StratCoarseData, StratSWP, StratCombined)
	}
	pipelined := opts.Strategy == StratSWP || opts.Strategy == StratCombined
	if hasFeedback(prog.Top) && !pipelined {
		return nil, fmt.Errorf("partition: feedback loops need finer-than-batch interleaving; the mapped engine cannot run %s (use a pipelined strategy)", prog.Name)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pg, err := BuildOpts(g, s, BuildOptions{MeasuredWorkNS: opts.MeasuredWorkNS})
	if err != nil {
		return nil, err
	}
	b := &planBuilder{
		strategy: opts.Strategy,
		workers:  workers,
		graph:    g,
		sch:      s,
		pg:       pg,
		total:    pg.TotalWork(),
		plan: &ExecPlan{
			Strategy:  opts.Strategy,
			Workers:   workers,
			Work:      map[*ir.Filter]int64{},
			Segments:  map[*ir.Filter][]*ir.Filter{},
			Pipelined: pipelined,
		},
	}
	// StratTask and StratSWP keep the program untouched. StratCombined also
	// skips the rewrite for teleport-messaging programs: sdep delivery
	// windows are computed on the executing graph, so rewriting the nodes
	// between messaging endpoints could move deliveries to different firing
	// boundaries than the sequential reference on the original program.
	if opts.Strategy == StratTask || opts.Strategy == StratSWP ||
		(pipelined && (len(prog.Portals) > 0 || len(prog.Constraints) > 0)) {
		b.plan.Program = prog
		return b.plan, nil
	}
	top, err := b.rewrite(prog.Top)
	if err != nil {
		return nil, err
	}
	b.plan.Program = &ir.Program{
		Name:        prog.Name + "_mapped",
		Top:         top,
		Portals:     prog.Portals,
		Constraints: prog.Constraints,
		Named:       prog.Named,
	}
	return b.plan, nil
}

func hasFeedback(s ir.Stream) bool {
	switch s := s.(type) {
	case *ir.FeedbackLoop:
		return true
	case *ir.Pipeline:
		for _, c := range s.Children {
			if hasFeedback(c) {
				return true
			}
		}
	case *ir.SplitJoin:
		for _, c := range s.Children {
			if hasFeedback(c) {
				return true
			}
		}
	}
	return false
}

// planBuilder carries the rewrite state: strategy, work estimates from the
// original schedule, and the accumulating plan.
type planBuilder struct {
	strategy Strategy
	workers  int
	graph    *ir.Graph
	sch      *sched.Schedule
	pg       *PGraph
	total    int64
	plan     *ExecPlan
}

// transformable reports whether f may participate in fusion/fission: a
// static-rate, data-carrying, stateless IL filter without messaging. Native
// filters are excluded: their closures may not be reentrant, so they can
// be neither replicated nor spliced into a fused kernel.
func (b *planBuilder) transformable(f *ir.Filter) bool {
	k := f.Kernel
	if f.WorkFn != nil || k.Dynamic || len(k.Handlers) > 0 {
		return false
	}
	if k.Pop <= 0 || k.Push <= 0 {
		return false
	}
	return !wfunc.WritesFields(k.Work) && !wfunc.SendsMessages(k.Work)
}

// perSteady returns f's estimated cycles per steady iteration of the
// original schedule (0 for filters missing from the flat graph).
func (b *planBuilder) perSteady(f *ir.Filter) int64 {
	n := b.graph.FilterNode[f]
	if n == nil {
		return 0
	}
	return b.pg.nodes[n.ID].work
}

func (b *planBuilder) reps(f *ir.Filter) int64 {
	n := b.graph.FilterNode[f]
	if n == nil {
		return 1
	}
	return int64(b.sch.Reps[n.ID])
}

// fissFactor mirrors PGraph.fissAll's granularity heuristic on the
// 8×workers-scaled steady state: skip nodes too small to be worth
// scattering, then halve the replica count until each replica carries
// meaningful work.
func (b *planBuilder) fissFactor(work int64) int {
	if work <= 0 {
		return 1
	}
	scale := int64(8 * b.workers)
	w, total := work*scale, b.total*scale
	if w < total/int64(4*b.workers) {
		return 1
	}
	k := b.workers
	for k > 1 && w/int64(k) < 256 {
		k /= 2
	}
	return k
}

func (b *planBuilder) rewrite(s ir.Stream) (ir.Stream, error) {
	switch s := s.(type) {
	case *ir.Filter:
		if !b.transformable(s) {
			return s, nil
		}
		out, err := b.rewriteRun([]*ir.Filter{s})
		if err != nil {
			return nil, err
		}
		if len(out) != 1 {
			return nil, fmt.Errorf("partition: single-filter rewrite produced %d streams", len(out))
		}
		return out[0], nil
	case *ir.Pipeline:
		return b.rewritePipeline(s)
	case *ir.SplitJoin:
		nsj := &ir.SplitJoin{Name: s.Name, Split: s.Split, Join: s.Join}
		for _, c := range s.Children {
			nc, err := b.rewrite(c)
			if err != nil {
				return nil, err
			}
			nsj.Add(nc)
		}
		return nsj, nil
	case *ir.FeedbackLoop:
		if b.strategy == StratCombined {
			// The loop rides through untouched: its nodes form one pipeline
			// cluster firing at sequential granularity on a single worker,
			// so rewriting inside it buys nothing and risks reordering the
			// back-edge interleave.
			return s, nil
		}
		return nil, fmt.Errorf("partition: feedback loop %s reached the rewriter", s.Name)
	}
	return nil, fmt.Errorf("partition: unknown stream kind %T", s)
}

// rewritePipeline collects maximal runs of transformable filters and
// rewrites each; other children recurse.
func (b *planBuilder) rewritePipeline(p *ir.Pipeline) (ir.Stream, error) {
	out := &ir.Pipeline{Name: p.Name}
	var run []*ir.Filter
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		streams, err := b.rewriteRun(run)
		run = nil
		if err != nil {
			return err
		}
		out.Add(streams...)
		return nil
	}
	for _, c := range p.Children {
		if f, ok := c.(*ir.Filter); ok && b.transformable(f) {
			run = append(run, f)
			continue
		}
		if err := flush(); err != nil {
			return nil, err
		}
		nc, err := b.rewrite(c)
		if err != nil {
			return nil, err
		}
		out.Add(nc)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// rewriteRun turns a maximal run of transformable filters into its
// executable form. Under fine-grained data parallelism every filter is
// replicated individually; under coarse-grained data parallelism the run
// is segmented into fusable stretches, each fused and then fissed when the
// granularity heuristic approves.
func (b *planBuilder) rewriteRun(run []*ir.Filter) ([]ir.Stream, error) {
	if b.strategy == StratFineData {
		var out []ir.Stream
		for _, f := range run {
			st, err := b.rewriteSegment([]*ir.Filter{f}, b.fineFactor(f))
			if err != nil {
				return nil, err
			}
			out = append(out, st)
		}
		return out, nil
	}
	var out []ir.Stream
	for _, seg := range b.segment(run) {
		st, err := b.rewriteSegment(seg, b.fissFactor(b.segWork(seg)))
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// fineFactor is fine-grained data parallelism's replica count: every
// stateless filter with any work gets workers replicas, no granularity
// judgment — the strawman the paper measures against.
func (b *planBuilder) fineFactor(f *ir.Filter) int {
	if b.perSteady(f) <= 0 {
		return 1
	}
	return b.workers
}

func (b *planBuilder) segWork(seg []*ir.Filter) int64 {
	var w int64
	for _, f := range seg {
		w += b.perSteady(f)
	}
	return w
}

// segment splits a run into the stretches coarsening fuses. Fusion stops
// where fuse.Check fails and at every boundary whose consumer peeks:
// fusing there carries the consumer's peek history as state, and a
// stateful segment cannot be fissed. Pieces rejoin across a peeking
// boundary only when the joined segment is too light for fission anyway,
// so every fissed segment is stateless and every fused one does exactly
// its constituents' work.
func (b *planBuilder) segment(run []*ir.Filter) [][]*ir.Filter {
	type piece struct {
		fs       []*ir.Filter
		work     int64
		joinable bool // fusable with the previous piece, across a peek
	}
	var ps []piece
	for i, f := range run {
		if i > 0 {
			err := fuse.Check(run[i-1], f)
			if err == nil && f.Kernel.Peek == f.Kernel.Pop {
				p := &ps[len(ps)-1]
				p.fs, p.work = append(p.fs, f), p.work+b.perSteady(f)
				continue
			}
			ps = append(ps, piece{joinable: err == nil})
		} else {
			ps = append(ps, piece{})
		}
		p := &ps[len(ps)-1]
		p.fs, p.work = []*ir.Filter{f}, b.perSteady(f)
	}
	var segs [][]*ir.Filter
	cur, work := ps[0].fs, ps[0].work
	for _, p := range ps[1:] {
		if p.joinable && b.fissFactor(work+p.work) == 1 {
			cur, work = append(cur, p.fs...), work+p.work
			continue
		}
		segs = append(segs, cur)
		cur, work = p.fs, p.work
	}
	return append(segs, cur)
}

// rewriteSegment emits the executable form of one fusable segment with
// fission factor k: the original filter (len 1, k==1), a single fused
// filter (k==1), or a scatter/replicas/gather split-join (k>1). The
// segment is fused once; replicas are fresh filters sharing its IL bodies,
// so the engines compile one program for all of them while each replica
// keeps its own field state.
func (b *planBuilder) rewriteSegment(seg []*ir.Filter, k int) (ir.Stream, error) {
	segWork := b.segWork(seg)
	// Items entering the segment per original steady iteration, for
	// converting segment work to per-firing work of the fused result.
	inItems := b.reps(seg[0]) * int64(seg[0].Kernel.Pop)

	inner := seg[0]
	if len(seg) > 1 {
		var err error
		if inner, err = fuse.Segment(segName(seg), seg); err != nil {
			return nil, err
		}
		b.plan.Fused += len(seg) - 1
	}
	kr := inner.Kernel
	P, U, E := kr.Pop, kr.Push, kr.Peek-kr.Pop
	pf := perFiring(segWork, int64(P), inItems)
	if k <= 1 {
		if len(seg) > 1 {
			b.plan.Work[inner] = pf
			b.plan.Segments[inner] = seg
		}
		return inner, nil
	}

	name := segName(seg)
	b.plan.Replicas += k
	wPop := make([]int, k)
	wPush := make([]int, k)
	for r := range wPop {
		wPop[r], wPush[r] = P, U
	}
	var replicas []*ir.Filter
	split := ir.RoundRobin(wPop...)
	if E == 0 {
		// Round-robin scatter of each replica's pop quantum; ordered
		// round-robin gather restores the original output order (replica r
		// handles original firings r, r+k, r+2k, ...).
		for r := 0; r < k; r++ {
			replicas = append(replicas, copyFilter(inner, fmt.Sprintf("%s/f%d", name, r)))
		}
	} else {
		// Peeking fission: every replica sees the whole stream (duplicate
		// splitter) and runs one constituent firing per k·P consumed items
		// — PGraph.fiss's duplicated peek margin, made executable.
		replicas = peekingReplicas(inner, name, k)
		split = ir.Duplicate()
	}
	for _, rep := range replicas {
		b.plan.Work[rep] = pf
		b.plan.Segments[rep] = seg
	}
	return ir.SJ(name+"_fiss", split, ir.RoundRobin(wPush...), filterStreams(replicas)...), nil
}

// perFiring converts segment work per original steady iteration into
// cycles per fused firing: the fused filter consumes P items per firing
// out of inItems per steady iteration.
func perFiring(work, pop, inItems int64) int64 {
	if inItems <= 0 {
		return 1
	}
	w := work * pop / inItems
	if w < 1 {
		w = 1
	}
	return w
}

func segName(seg []*ir.Filter) string {
	name := seg[0].Kernel.Name
	for _, f := range seg[1:] {
		name += "+" + f.Kernel.Name
	}
	return name
}

func filterStreams(fs []*ir.Filter) []ir.Stream {
	out := make([]ir.Stream, len(fs))
	for i, f := range fs {
		out[i] = f
	}
	return out
}

// copyFilter clones an IL filter under a new name for use as a fission
// replica: a fresh Filter and Kernel value (flattening requires single
// appearance) sharing the immutable IL bodies; per-instance state is
// created by the engines.
func copyFilter(f *ir.Filter, name string) *ir.Filter {
	k := *f.Kernel
	k.Name = name
	return &ir.Filter{Kernel: &k, In: f.In, Out: f.Out}
}

// peekingReplicas builds the k replicas of a peeking filter (peek P+E,
// pop P). Replica r consumes k·P items per firing with a peek margin of E:
//
//	pop skip; <inner body>; pop (k−1)·P − skip     (skip = r·P)
//
// The duplicate splitter delivers the full stream to every replica, so
// replica r's j-th firing reproduces original firing j·k+r exactly. skip
// is a per-replica constant field, so all k replicas share one work
// function and the engines compile it once.
func peekingReplicas(inner *ir.Filter, name string, k int) []*ir.Filter {
	ki := inner.Kernel
	P, E := ki.Pop, ki.Peek-ki.Pop
	skip := &wfunc.FieldRef{}
	for _, f := range ki.Fields {
		if f.Size == 0 {
			skip.Idx++
		}
	}
	z := &wfunc.LocalRef{Idx: ki.Work.NumLocals}
	body := []wfunc.Stmt{wfunc.ForUp(z, wfunc.Ci(0), skip, wfunc.Pop1())}
	body = append(body, ki.Work.Body...)
	body = append(body, wfunc.ForUp(z, skip, wfunc.Ci((k-1)*P), wfunc.Pop1()))
	work := &wfunc.Func{Name: ki.Work.Name, Body: body, NumLocals: z.Idx + 1, ArraySizes: ki.Work.ArraySizes}

	reps := make([]*ir.Filter, k)
	for r := range reps {
		rep := copyFilter(inner, fmt.Sprintf("%s/f%d", name, r))
		kr := rep.Kernel
		kr.Peek, kr.Pop = k*P+E, k*P
		kr.Fields = append(ki.Fields[:len(ki.Fields):len(ki.Fields)], wfunc.FieldSpec{Name: "skip", Init: float64(r * P)})
		kr.Work = work
		reps[r] = rep
	}
	return reps
}

// Assign maps every node of the rewritten flat graph onto a worker from
// the plan's work estimates. Lockstep plans are cut as a chain: one
// topological order split into contiguous runs that minimize the heaviest
// worker, so every cross-worker edge flows from a lower worker to a higher
// one and the workers pipeline successive steady iterations. Pipelined
// plans keep longest-processing-time bin-packing over stage clusters (their
// stage skew already overlaps iterations). g2 and s2 must be the
// flattening and schedule of plan.Program.
func (p *ExecPlan) Assign(g2 *ir.Graph, s2 *sched.Schedule) []int {
	return p.AssignN(g2, s2, p.Workers)
}

// AssignN is Assign onto an explicit worker count — the re-planning hook
// for crash recovery, which packs the same rewritten graph onto the
// surviving workers without re-running the fusion/fission rewrite (the
// graph, schedule, and checkpoint fingerprint all stay fixed).
func (p *ExecPlan) AssignN(g2 *ir.Graph, s2 *sched.Schedule, workers int) []int {
	return p.AssignMeasured(g2, s2, workers, nil)
}

// AssignMeasured is AssignN with live measurements: perFiringNS maps
// rewritten-graph node names (g2 names — fused segments and fission
// replicas, exactly the profiler's key space on a mapped engine) to
// measured work per firing in nanoseconds, which overrides the plan's
// static estimate for the nodes it covers. This is the elastic re-plan
// entry point: the elaborated graph, its schedule, and therefore the
// checkpoint fingerprint all stay fixed — only the packing moves.
// Measured weights are rescaled so covered nodes keep the covered set's
// total static weight, letting measured and estimated nodes pack on one
// scale (the same discipline as BuildOptions.MeasuredWorkNS).
func (p *ExecPlan) AssignMeasured(g2 *ir.Graph, s2 *sched.Schedule, workers int, perFiringNS map[string]int64) []int {
	if workers < 1 {
		workers = 1
	}
	nodeW := p.nodeWeights(g2, s2, perFiringNS)
	if !p.Pipelined {
		return chainCut(g2, s2, nodeW, workers)
	}
	// Packing units: single nodes, except that every stage cluster
	// (feedback cycles, messaging hulls) stays whole — its members must
	// fire as a unit on one worker.
	type unit struct {
		members []int
		w       int64
	}
	var units []unit
	grouped := make([]bool, len(g2.Nodes))
	if sp, err := PipelineStages(g2); err == nil {
		for _, c := range sp.Clusters {
			u := unit{members: c}
			for _, id := range c {
				u.w += nodeW[id]
				grouped[id] = true
			}
			units = append(units, u)
		}
	}
	for _, n := range g2.Nodes {
		if !grouped[n.ID] {
			units = append(units, unit{members: []int{n.ID}, w: nodeW[n.ID]})
		}
	}
	sort.SliceStable(units, func(i, j int) bool { return units[i].w > units[j].w })
	loads := make([]int64, workers)
	assign := make([]int, len(g2.Nodes))
	for _, u := range units {
		best := 0
		for w := 1; w < len(loads); w++ {
			if loads[w] < loads[best] {
				best = w
			}
		}
		for _, id := range u.members {
			assign[id] = best
		}
		loads[best] += u.w
	}
	return assign
}
