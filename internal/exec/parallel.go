package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"streamit/internal/faults"
	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// errStopped unwinds a node goroutine after the run was aborted (watchdog
// deadlock, or another node's error). It never reaches the caller of Run.
var errStopped = errors.New("exec: run aborted")

// ParallelEngine executes a flattened stream graph on real OS threads: one
// goroutine per node, connected by Go channels carrying one steady-state
// iteration's worth of items per batch. It is the natural Go backend for
// StreamIt's execution model — every filter is an autonomous actor and the
// steady-state rates make batch sizes static.
//
// Peeking filters keep their window margin locally between batches, and
// feedback delays pre-populate the loop channel, so results are
// bit-identical to the sequential Engine. Teleport messaging requires the
// sequential engine's global wavefront ordering and is not supported here.
//
// A watchdog supervises every run: if no batch moves and no filter fires
// for the configured interval, the run aborts with a *DeadlockError naming
// each blocked node, the tape it waits on, and the traced wait-cycle —
// instead of hanging forever.
type ParallelEngine struct {
	G   *ir.Graph
	Sch *sched.Schedule
	// Backend is the work-function execution substrate (bytecode VM by
	// default).
	Backend Backend

	nodes []*pnodeRT
	chans []chan []float64

	// Depth is the channel buffering in steady-state batches (default 2:
	// double buffering).
	Depth int

	// Watchdog is the stall-detection interval: 0 selects
	// DefaultWatchdogInterval, negative disables detection.
	Watchdog time.Duration

	sup *supervisor

	// prof and rec are the observability hooks; nil when disabled.
	prof *obs.Profiler
	rec  *obs.Recorder

	// Per-run supervision state.
	stopCh   chan struct{}
	progress int64
	statuses []*nodeStatus
}

// pnodeRT is the per-goroutine runtime state of one node.
type pnodeRT struct {
	node  *ir.Node
	state *wfunc.State
	// carry holds unconsumed items per input port (the peek margin and any
	// initialization residue).
	carry [][]float64
	// fired counts steady-state firings (the fault injector's index).
	fired int64
	// override, when set, fires in place of the kernel's work function
	// during steady state (MappedEngine.OverrideWork; the parallel engine
	// ignores it).
	override func(in, out wfunc.Tape)
}

// NewParallel prepares a parallel engine for a scheduled graph on the
// default (VM) backend. Programs with portals or latency constraints are
// rejected — teleport messaging needs the sequential runtime.
func NewParallel(g *ir.Graph, s *sched.Schedule) (*ParallelEngine, error) {
	return NewParallelBackend(g, s, BackendVM)
}

// NewParallelBackend is NewParallel with an explicit work-function
// backend.
func NewParallelBackend(g *ir.Graph, s *sched.Schedule, backend Backend) (*ParallelEngine, error) {
	return NewParallelOpts(g, s, Options{Backend: backend})
}

// NewParallelOpts is the full-option constructor: backend selection plus
// supervised execution (fault injection, recovery policies, watchdog
// interval).
func NewParallelOpts(g *ir.Graph, s *sched.Schedule, opts Options) (*ParallelEngine, error) {
	if len(g.Portals) > 0 || len(g.Constraints) > 0 {
		return nil, fmt.Errorf("exec: the parallel backend does not support teleport messaging; use the sequential Engine")
	}
	for _, e := range g.Edges {
		if e.Back {
			return nil, fmt.Errorf("exec: feedback loops need finer-than-batch interleaving; use the sequential Engine")
		}
	}
	for _, n := range g.Nodes {
		if n.Kind == ir.NodeFilter && wfunc.SendsMessages(n.Filter.Kernel.Work) {
			return nil, fmt.Errorf("exec: filter %s sends messages; use the sequential Engine", n.Name)
		}
	}
	pe := &ParallelEngine{G: g, Sch: s, Backend: opts.Backend, Depth: 2, Watchdog: opts.Watchdog, rec: opts.Trace}
	if opts.Profile {
		pe.prof = obs.NewProfiler(nodeNames(g))
	}
	sup, err := newSupervisor(g, opts)
	if err != nil {
		return nil, err
	}
	pe.sup = sup
	pe.nodes = make([]*pnodeRT, len(g.Nodes))
	for _, n := range g.Nodes {
		rt := &pnodeRT{node: n, carry: make([][]float64, len(n.In))}
		if n.Kind == ir.NodeFilter {
			k := n.Filter.Kernel
			rt.state = k.NewState()
			if k.Init != nil {
				env := wfunc.NewEnv(k.Init)
				env.State = rt.state
				if err := wfunc.Exec(k.Init, env); err != nil {
					return nil, fmt.Errorf("init of %s: %w", n.Name, err)
				}
			}
		}
		pe.nodes[n.ID] = rt
	}
	return pe, nil
}

// SupervisionReport renders per-filter recovery counters (empty when the
// engine is unsupervised or nothing degraded).
func (pe *ParallelEngine) SupervisionReport() string { return pe.sup.Report() }

// Degraded returns per-filter recovery counters (nil when unsupervised).
func (pe *ParallelEngine) Degraded() map[string]DegradedStats {
	if pe.sup == nil {
		return nil
	}
	return pe.sup.Stats()
}

// Run executes the initialization phase sequentially (it is a transient)
// and then iters steady-state iterations with every node running
// concurrently. It returns only after all goroutines drain.
func (pe *ParallelEngine) Run(iters int) error {
	// Initialization runs on a scratch sequential engine sharing our node
	// states, leaving each channel's residue in carry buffers. The init
	// transient is unsupervised; fault firing indexes count steady-state
	// firings per filter.
	seq, err := NewFromGraphBackend(pe.G, pe.Sch, pe.Backend)
	if err != nil {
		return err
	}
	// Adopt the sequential engine's freshly-initialized states so field
	// tables computed by init functions are shared, and share our profiler
	// and trace recorder so the init transient lands in the same counters.
	for _, n := range pe.G.Nodes {
		pe.nodes[n.ID].state = seq.nodes[n.ID].state
	}
	seq.adoptObs(pe.prof, pe.rec)
	if err := seq.RunInit(); err != nil {
		return err
	}
	// Move channel residue (init leftovers, feedback delays, peek margins)
	// into the consumers' carry buffers.
	for _, e := range pe.G.Edges {
		ch := seq.chans[e.ID]
		buf := make([]float64, ch.Len())
		for i := range buf {
			buf[i] = ch.Pop()
		}
		pe.nodes[e.Dst.ID].carry[e.DstPort] = buf
	}

	// Steady state: one goroutine per node, batched channels per edge.
	pe.chans = make([]chan []float64, len(pe.G.Edges))
	for _, e := range pe.G.Edges {
		pe.chans[e.ID] = make(chan []float64, pe.Depth)
	}
	pe.stopCh = make(chan struct{})
	var stopOnce sync.Once
	stopAll := func() { stopOnce.Do(func() { close(pe.stopCh) }) }
	atomic.StoreInt64(&pe.progress, 0)
	pe.statuses = make([]*nodeStatus, len(pe.G.Nodes))
	for _, n := range pe.G.Nodes {
		pe.statuses[n.ID] = newNodeStatus(n.Name)
	}
	var wd *watchdog
	if pe.Watchdog >= 0 {
		interval := pe.Watchdog
		if interval == 0 {
			interval = DefaultWatchdogInterval
		}
		wd = newWatchdog("parallel", interval, &pe.progress, pe.statuses, stopAll)
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(pe.G.Nodes))
	for _, rt := range pe.nodes {
		wg.Add(1)
		go func(rt *pnodeRT) {
			defer wg.Done()
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = asExecError(rt.node.Name, rt.fired, r)
					}
				}()
				return pe.runNode(rt, iters)
			}()
			if err != nil {
				if err != errStopped {
					errs <- err
				}
				// Abort the whole network so producers and consumers blocked
				// on this node's tapes unwind instead of hanging.
				stopAll()
			}
		}(rt)
	}
	wg.Wait()
	if wd != nil {
		wd.close()
		if derr := wd.error(); derr != nil {
			return derr
		}
	}
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// recvBatch receives one batch, recording the wait state while blocked so
// the watchdog can report who waits on whom.
func (pe *ParallelEngine) recvBatch(n *ir.Node, e *ir.Edge, q *SliceQueue, st *nodeStatus) ([]float64, error) {
	ch := pe.chans[e.ID]
	select {
	case batch, ok := <-ch:
		if !ok {
			return nil, pe.closedEarly(n)
		}
		atomic.AddInt64(&pe.progress, 1)
		return batch, nil
	default:
	}
	st.set(stWaitRecv, e.String(), q.Len(), e.Src.ID)
	defer st.set(stRunning, "", 0, -1)
	if pe.prof != nil {
		t0 := time.Now()
		defer func() { pe.prof.At(n.ID).AddStall(time.Since(t0)) }()
	}
	select {
	case batch, ok := <-ch:
		if !ok {
			return nil, pe.closedEarly(n)
		}
		atomic.AddInt64(&pe.progress, 1)
		return batch, nil
	case <-pe.stopCh:
		return nil, errStopped
	}
}

func (pe *ParallelEngine) closedEarly(n *ir.Node) error {
	select {
	case <-pe.stopCh:
		return errStopped
	default:
		return fmt.Errorf("exec: channel into %s closed early", n.Name)
	}
}

// sendBatch ships one batch, recording the wait state while blocked.
func (pe *ParallelEngine) sendBatch(e *ir.Edge, batch []float64, st *nodeStatus) error {
	ch := pe.chans[e.ID]
	select {
	case ch <- batch:
		atomic.AddInt64(&pe.progress, 1)
		return nil
	default:
	}
	st.set(stWaitSend, e.String(), len(batch), e.Dst.ID)
	defer st.set(stRunning, "", 0, -1)
	if pe.prof != nil {
		t0 := time.Now()
		defer func() { pe.prof.At(e.Src.ID).AddStall(time.Since(t0)) }()
	}
	select {
	case ch <- batch:
		atomic.AddInt64(&pe.progress, 1)
		return nil
	case <-pe.stopCh:
		return errStopped
	}
}

// runNode executes one node's share of iters steady iterations.
func (pe *ParallelEngine) runNode(rt *pnodeRT, iters int) error {
	n := rt.node
	st := pe.statuses[n.ID]
	defer st.set(stDone, "", 0, -1)
	reps := pe.Sch.Reps[n.ID]

	// Per-iteration production sizes (consumption is implied by batches).
	produce := make([]int, len(n.Out))
	for p := range n.Out {
		if n.Out[p] != nil {
			produce[p] = reps * n.PushPort(p)
		}
	}

	var runner *workRunner
	if n.Kind == ir.NodeFilter && n.Filter.WorkFn == nil {
		// Built here, after Run adopted the init-phase states, so the
		// runner binds the state the work function must see.
		runner = newWorkRunner(n.Filter.Kernel, rt.state, pe.Backend)
	}
	// Always close outputs so consumers never block on a dead producer.
	defer func() {
		for _, e := range n.Out {
			if e != nil {
				close(pe.chans[e.ID])
			}
		}
	}()

	in := make([]*SliceQueue, len(n.In))
	for p := range n.In {
		in[p] = &SliceQueue{buf: rt.carry[p]}
	}
	out := make([]*SliceQueue, len(n.Out))
	for p := range n.Out {
		out[p] = &SliceQueue{}
	}

	// Filter tapes, wrapped in counting adapters when profiling.
	var pst *obs.FilterStats
	if pe.prof != nil {
		pst = pe.prof.At(n.ID)
	}
	var tIn, tOut wfunc.Tape
	if n.Kind == ir.NodeFilter {
		if len(n.In) > 0 && n.In[0] != nil {
			tIn = in[0]
			if pst != nil {
				tIn = &obsTape{inner: in[0], st: pst}
			}
		}
		if len(n.Out) > 0 && n.Out[0] != nil {
			tOut = out[0]
			if pst != nil {
				tOut = &obsTape{inner: out[0], st: pst, lenFn: out[0].Len}
			}
		}
	}

	for it := 0; it < iters; it++ {
		// Receive one batch per input port.
		for p, e := range n.In {
			if e == nil {
				continue
			}
			batch, err := pe.recvBatch(n, e, in[p], st)
			if err != nil {
				return err
			}
			in[p].Append(batch)
		}
		// Fire reps times.
		for r := 0; r < reps; r++ {
			if pst == nil && pe.rec == nil {
				if err := pe.fireOnce(rt, runner, in, out, tIn, tOut, st); err != nil {
					return err
				}
			} else {
				start := time.Now()
				err := pe.fireOnce(rt, runner, in, out, tIn, tOut, st)
				d := time.Since(start)
				if pst != nil {
					if n.Kind == ir.NodeFilter {
						pst.AddWork(d)
					} else {
						profileSJ(pst, n)
					}
				}
				if pe.rec != nil && n.Kind == ir.NodeFilter {
					end := pe.rec.Stamp()
					pe.rec.Slice(n.ID, n.Name, "firing", end-d, end)
				}
				if err != nil {
					return err
				}
			}
			if pst != nil {
				pst.AddFiring()
			}
			rt.fired++
			atomic.AddInt64(&pe.progress, 1)
		}
		// Ship one batch per output port.
		for p, e := range n.Out {
			if e == nil {
				continue
			}
			batch := out[p].Take(produce[p])
			if err := pe.sendBatch(e, batch, st); err != nil {
				return err
			}
		}
	}
	return nil
}

func (pe *ParallelEngine) fireOnce(rt *pnodeRT, runner *workRunner, in, out []*SliceQueue, tIn, tOut wfunc.Tape, st *nodeStatus) error {
	n := rt.node
	switch n.Kind {
	case ir.NodeFilter:
		if pe.sup != nil {
			return pe.fireFilterSupervised(rt, runner, in, out, tIn, tOut, st)
		}
		if n.Filter.WorkFn != nil {
			n.Filter.WorkFn(tIn, tOut, rt.state)
			return nil
		}
		if err := runner.run(tIn, tOut, nil, nil); err != nil {
			return &ExecError{Filter: n.Name, Op: "work", Iteration: rt.fired, Err: err}
		}
		return nil
	case ir.NodeSplitter:
		if n.SJ.Kind == ir.SJDuplicate {
			v := in[0].Pop()
			for p, e := range n.Out {
				if e != nil {
					out[p].Push(v)
				}
			}
			return nil
		}
		for p, e := range n.Out {
			for k := 0; k < n.SJ.Weights[p]; k++ {
				v := in[0].Pop()
				if e != nil {
					out[p].Push(v)
				}
			}
		}
		return nil
	case ir.NodeJoiner:
		for p, e := range n.In {
			if e == nil {
				continue
			}
			for k := 0; k < n.SJ.Weights[p]; k++ {
				out[0].Push(in[p].Pop())
			}
		}
		return nil
	}
	return fmt.Errorf("exec: unknown node kind")
}

// fireFilterSupervised wraps one filter firing in the fault injector and
// the filter's recovery policy, mirroring the sequential engine's
// semantics on the batch queues.
func (pe *ParallelEngine) fireFilterSupervised(rt *pnodeRT, runner *workRunner, in, out []*SliceQueue, tIn, tOut wfunc.Tape, st *nodeStatus) error {
	n := rt.node
	name := n.Name
	pol := pe.sup.pol.For(name)
	rollback := pol.Action != faults.Fail
	var qIn, qOut *SliceQueue
	if len(in) > 0 && n.In[0] != nil {
		qIn = in[0]
	}
	if len(out) > 0 && n.Out[0] != nil {
		qOut = out[0]
	}
	var inHead, outLen int
	var stateSave *wfunc.State
	if rollback {
		if qIn != nil {
			inHead = qIn.head
		}
		if qOut != nil {
			outLen = len(qOut.buf)
		}
		if rt.state != nil {
			stateSave = rt.state.Clone()
		}
	}
	restore := func() {
		if qIn != nil {
			qIn.head = inHead
		}
		if qOut != nil {
			qOut.buf = qOut.buf[:outLen]
		}
		if stateSave != nil {
			rt.state = stateSave.Clone()
			if runner != nil {
				runner.setState(rt.state)
			}
		}
	}
	attempt := func(fault faults.Fault, injected bool) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = asExecError(name, rt.fired, r)
			}
		}()
		if injected {
			switch fault.Kind {
			case faults.Panic:
				return &ExecError{Filter: name, Op: "injected panic", Iteration: rt.fired}
			case faults.Stall:
				if rollback {
					// A recoverable policy turns the stall into a synchronous
					// failure (the sequential engine's convention), so
					// retry/skip/restart actually recover instead of wedging
					// the filter until the watchdog aborts the run.
					return &ExecError{Filter: name, Op: "injected stall", Iteration: rt.fired,
						Err: fmt.Errorf("stall reported synchronously under a %s policy", pol.Action)}
				}
				// Block like a wedged kernel until the watchdog aborts the run.
				st.set(stStalled, "", 0, -1)
				<-pe.stopCh
				return errStopped
			}
		}
		wOut := tOut
		if injected && fault.Kind == faults.Corrupt {
			wOut = corruptOut(wOut)
		}
		if n.Filter.WorkFn != nil {
			n.Filter.WorkFn(tIn, wOut, rt.state)
			return nil
		}
		if err := runner.run(tIn, wOut, nil, nil); err != nil {
			return &ExecError{Filter: name, Op: "work", Iteration: rt.fired, Err: err}
		}
		return nil
	}
	fault, injected := pe.sup.take(name, rt.fired)
	if injected {
		traceFault(pe.rec, n.ID, name, fault.Kind.String())
	}
	err := attempt(fault, injected)
	if err == nil || err == errStopped {
		return err
	}
	switch pol.Action {
	case faults.Retry:
		for a := 1; a <= pol.Retries; a++ {
			pe.sup.noteRetry(name)
			traceRecovery(pe.rec, n.ID, name, "retry")
			if pol.Backoff > 0 {
				time.Sleep(time.Duration(a) * pol.Backoff)
			}
			restore()
			if err = attempt(faults.Fault{}, false); err == nil || err == errStopped {
				return err
			}
		}
		return fmt.Errorf("exec: %d retries exhausted: %w", pol.Retries, err)
	case faults.Skip:
		restore()
		pe.sup.noteSkip(name)
		traceRecovery(pe.rec, n.ID, name, "skip")
		skipFiring(n, tIn, tOut)
		return nil
	case faults.Restart:
		restore()
		stFresh, serr := freshState(n)
		if serr != nil {
			return serr
		}
		rt.state = stFresh
		if runner != nil {
			runner.setState(stFresh)
		}
		pe.sup.noteRestart(name)
		traceRecovery(pe.rec, n.ID, name, "restart")
		if err = attempt(faults.Fault{}, false); err != nil && err != errStopped {
			return fmt.Errorf("exec: restart did not recover: %w", err)
		}
		return err
	}
	return err
}

// SliceQueue is a simple FIFO over a slice implementing wfunc.Tape; the
// parallel backend uses one per port with batch append/take.
type SliceQueue struct {
	buf  []float64
	head int
}

// Append adds a batch at the write end.
func (q *SliceQueue) Append(batch []float64) {
	// Compact occasionally so the backing array doesn't grow unboundedly.
	if q.head > 4096 && q.head >= len(q.buf)/2 {
		q.buf = append([]float64(nil), q.buf[q.head:]...)
		q.head = 0
	}
	q.buf = append(q.buf, batch...)
}

// Take removes exactly n items from the read end.
func (q *SliceQueue) Take(n int) []float64 {
	if n < 0 || n > q.Len() {
		panic(tapeFault{op: "take", detail: fmt.Sprintf("take(%d) with %d items buffered", n, q.Len())})
	}
	out := make([]float64, n)
	copy(out, q.buf[q.head:q.head+n])
	q.head += n
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return out
}

// Compact drops consumed items from the front of the backing array. The
// mapped engine calls it at iteration boundaries on its worker-local
// queues, where per-item Push/Pop traffic never passes through Append's
// occasional compaction.
func (q *SliceQueue) Compact() {
	if q.head == 0 {
		return
	}
	n := copy(q.buf, q.buf[q.head:])
	q.buf = q.buf[:n]
	q.head = 0
}

// Peek implements wfunc.Tape.
func (q *SliceQueue) Peek(i int) float64 {
	if i < 0 || q.head+i >= len(q.buf) {
		panic(tapeFault{op: "peek", detail: fmt.Sprintf("peek(%d) with %d items buffered", i, q.Len())})
	}
	return q.buf[q.head+i]
}

// Pop implements wfunc.Tape.
func (q *SliceQueue) Pop() float64 {
	if q.head >= len(q.buf) {
		panic(tapeFault{op: "pop", detail: "pop on empty batch queue"})
	}
	v := q.buf[q.head]
	q.head++
	return v
}

// Push implements wfunc.Tape.
func (q *SliceQueue) Push(v float64) { q.buf = append(q.buf, v) }

// Len returns buffered items.
func (q *SliceQueue) Len() int { return len(q.buf) - q.head }
