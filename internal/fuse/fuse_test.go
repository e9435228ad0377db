package fuse

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/vm"
	"streamit/internal/wfunc"
)

// mkStateless builds a stateless filter: each output is a scaled window
// sum plus the output index.
func mkStateless(name string, peek, pop, push int, scale float64) *ir.Filter {
	b := wfunc.NewKernel(name, peek, pop, push)
	i := b.Local("i")
	s := b.Local("s")
	var body []wfunc.Stmt
	body = append(body, wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(peek),
		wfunc.Set(s, wfunc.AddX(s, wfunc.PeekX(i)))))
	for j := 0; j < push; j++ {
		body = append(body, wfunc.Push1(wfunc.AddX(wfunc.MulX(s, wfunc.C(scale)), wfunc.Ci(j))))
	}
	for j := 0; j < pop; j++ {
		body = append(body, wfunc.Pop1())
	}
	b.WorkBody(body...)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// mkStateful builds a consumer with persistent state: a running sum over
// everything it has consumed, emitted per firing with a peek-ahead term.
func mkStateful(name string, peek, pop, push int) *ir.Filter {
	b := wfunc.NewKernel(name, peek, pop, push)
	acc := b.Field("acc", 0)
	i := b.Local("i")
	s := b.Local("s")
	var body []wfunc.Stmt
	body = append(body, wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(peek),
		wfunc.Set(s, wfunc.AddX(s, wfunc.PeekX(i)))))
	body = append(body, wfunc.SetF(acc, wfunc.AddX(acc, s)))
	for j := 0; j < push; j++ {
		body = append(body, wfunc.Push1(wfunc.AddX(acc, wfunc.Ci(j))))
	}
	for j := 0; j < pop; j++ {
		body = append(body, wfunc.Pop1())
	}
	b.WorkBody(body...)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

func ramp(name string) *ir.Filter {
	b := wfunc.NewKernel(name, 0, 0, 1)
	n := b.Field("n", 0)
	b.WorkBody(
		wfunc.Push1(wfunc.Bin(wfunc.Mod, n, wfunc.C(97))),
		wfunc.SetF(n, wfunc.AddX(n, wfunc.C(1))),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeVoid, Out: ir.TypeFloat}
}

// TestConcurrentFusion fuses independent pipelines from concurrent
// goroutines: fusion builds fresh kernels and shares no mutable state with
// its inputs or other compiles (run under -race).
func TestConcurrentFusion(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				a := mkStateless("a", 2, 1, 2, 0.5)
				b := mkStateless("b", 2, 2, 1, 2)
				c := mkStateful("c", 1, 1, 1)
				ab, err := Pipeline("ab", a, b)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if wfunc.WritesFields(ab.Kernel.Work) {
					t.Errorf("worker %d: fused stateless pair carries state", w)
					return
				}
				abc, err := Pipeline("abc", ab, c)
				if err != nil {
					t.Errorf("worker %d: refusing fused producer: %v", w, err)
					return
				}
				if !wfunc.WritesFields(abc.Kernel.Work) {
					t.Errorf("worker %d: stateful-consumer fusion lost its state", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func outputsOf(t *testing.T, mid []ir.Stream, iters int) []float64 {
	t.Helper()
	snk, got := exec.SliceSink("snk")
	children := append([]ir.Stream{ramp("src")}, mid...)
	children = append(children, snk)
	prog := &ir.Program{Name: "t", Top: ir.Pipe("main", children...)}
	out, err := exec.RunCollect(prog, iters, got)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFusedMatchesPipeline: fusion preserves outputs for rate-changing,
// peeking, and stateful-consumer combinations.
func TestFusedMatchesPipeline(t *testing.T) {
	cases := []struct {
		name string
		a, b func() *ir.Filter
	}{
		{"simple", func() *ir.Filter { return mkStateless("A", 1, 1, 1, 2) },
			func() *ir.Filter { return mkStateless("B", 1, 1, 1, 3) }},
		{"rate-change", func() *ir.Filter { return mkStateless("A", 2, 2, 3, 0.5) },
			func() *ir.Filter { return mkStateless("B", 2, 2, 1, 1.5) }},
		{"peeking-consumer", func() *ir.Filter { return mkStateless("A", 1, 1, 1, 1) },
			func() *ir.Filter { return mkStateless("B", 5, 1, 1, 0.25) }},
		{"peeking-producer", func() *ir.Filter { return mkStateless("A", 4, 2, 1, 1) },
			func() *ir.Filter { return mkStateless("B", 1, 1, 2, 2) }},
		{"stateful-consumer", func() *ir.Filter { return mkStateless("A", 1, 1, 2, 1) },
			func() *ir.Filter { return mkStateful("B", 3, 2, 1) }},
		// The producer fires exactly once per original firing, in order, so
		// its state is never replayed: stateful producers fuse too.
		{"stateful-producer", func() *ir.Filter { return mkStateful("A", 2, 1, 2) },
			func() *ir.Filter { return mkStateful("B", 4, 3, 1) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			plain := outputsOf(t, []ir.Stream{c.a(), c.b()}, 64)
			fused, err := Pipeline("fused", c.a(), c.b())
			if err != nil {
				t.Fatal(err)
			}
			fusedOut := outputsOf(t, []ir.Stream{fused}, 64)
			n := min(len(plain), len(fusedOut))
			if n < 16 {
				t.Fatalf("too few outputs: %d", n)
			}
			for i := 0; i < n; i++ {
				if math.Abs(plain[i]-fusedOut[i]) > 1e-9 {
					t.Fatalf("output %d differs: pipeline %v, fused %v", i, plain[i], fusedOut[i])
				}
			}
		})
	}
}

// TestFuseRandomized: random rate combinations with a stateful peeking
// consumer fuse into a kernel the VM compiles, and the fused filter is
// bit-identical to the unfused pipeline on both backends.
func TestFuseRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		aPop := rng.Intn(3) + 1
		aPush := rng.Intn(3) + 1
		aPeek := aPop + rng.Intn(3)
		bPop := rng.Intn(3) + 1
		bPush := rng.Intn(3) + 1
		bPeek := bPop + rng.Intn(4)
		mk := func() []*ir.Filter {
			return []*ir.Filter{mkStateless("A", aPeek, aPop, aPush, 0.5), mkStateful("B", bPeek, bPop, bPush)}
		}
		label := fmt.Sprintf("trial %d (a:%d/%d/%d b:%d/%d/%d)", trial, aPeek, aPop, aPush, bPeek, bPop, bPush)
		checkFused(t, label, mk, func(fs []*ir.Filter) (*ir.Filter, error) { return Pipeline("fused", fs[0], fs[1]) })
	}
}

// checkFused runs mk's filters as a plain pipeline on the interpreter
// (the reference) and fused by fuse on the VM and the interpreter, and
// requires the fused kernel to compile to VM code and every output bit to
// match the reference.
func checkFused(t *testing.T, label string, mk func() []*ir.Filter, fuse func([]*ir.Filter) (*ir.Filter, error)) {
	t.Helper()
	fs := mk()
	plain := make([]ir.Stream, len(fs))
	for i, f := range fs {
		plain[i] = f
	}
	want := outputsOn(t, plain, 48, exec.BackendInterp)
	fused, err := fuse(mk())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if _, err := vm.Compile(fused.Kernel.Work); err != nil {
		t.Fatalf("%s: fused kernel falls back to the interpreter: %v", label, err)
	}
	for _, backend := range []exec.Backend{exec.BackendVM, exec.BackendInterp} {
		got := outputsOn(t, []ir.Stream{fused}, 48, backend)
		n := min(len(want), len(got))
		if n < 8 {
			t.Fatalf("%s: too few outputs (%d plain, %d fused)", label, len(want), len(got))
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("%s, %s: output %d: pipeline %v, fused %v", label, backend, i, want[i], got[i])
			}
		}
	}
}

// outputsOn runs ramp -> mid -> sink for iters steady iterations on the
// given backend and returns what the sink consumed.
func outputsOn(t *testing.T, mid []ir.Stream, iters int, backend exec.Backend) []float64 {
	t.Helper()
	snk, got := exec.SliceSink("snk")
	children := append([]ir.Stream{ramp("src")}, mid...)
	children = append(children, snk)
	g, err := ir.Flatten(&ir.Program{Name: "t", Top: ir.Pipe("main", children...)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	e, err := exec.NewFromGraphBackend(g, s, backend)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(iters); err != nil {
		t.Fatal(err)
	}
	return *got
}

// TestFuseRejections: native work functions, dynamic rates and message
// handlers are rejected with clear errors.
func TestFuseRejections(t *testing.T) {
	plain := mkStateless("P", 1, 1, 1, 1)
	native := mkStateless("N", 1, 1, 1, 1)
	native.WorkFn = func(in, out wfunc.Tape, _ *wfunc.State) { out.Push(in.Pop()) }
	if _, err := Pipeline("x", native, plain); err == nil {
		t.Error("native producer should be rejected")
	}
	dynB := wfunc.NewKernel("dyn", 1, 1, 1)
	dynB.Dynamic()
	dynB.WorkBody(wfunc.Push1(wfunc.PopE()))
	dyn := &ir.Filter{Kernel: dynB.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
	if _, err := Pipeline("x", plain, dyn); err == nil {
		t.Error("dynamic consumer should be rejected")
	}
	hb := wfunc.NewKernel("h", 1, 1, 1)
	hb.WorkBody(wfunc.Push1(wfunc.PopE()))
	hb.Handler("set", 0)
	handler := &ir.Filter{Kernel: hb.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
	if _, err := Pipeline("x", plain, handler); err == nil {
		t.Error("message handler should be rejected")
	}
}

// TestFusePipelineStream coarsens a whole pipeline and preserves output.
func TestFusePipelineStream(t *testing.T) {
	mk := func() []ir.Stream {
		return []ir.Stream{
			mkStateless("A", 1, 1, 2, 0.5),
			mkStateless("B", 2, 2, 1, 2),
			mkStateless("C", 3, 1, 1, 0.25),
		}
	}
	plain := outputsOf(t, mk(), 48)
	p := ir.Pipe("mid", mk()...)
	fp := FusePipelineStream(p)
	if len(fp.Children) != 1 {
		t.Fatalf("expected full coarsening to 1 filter, got %d", len(fp.Children))
	}
	fusedOut := outputsOf(t, []ir.Stream{fp}, 48)
	n := min(len(plain), len(fusedOut))
	for i := 0; i < n; i++ {
		if math.Abs(plain[i]-fusedOut[i]) > 1e-9 {
			t.Fatalf("output %d: %v vs %v", i, plain[i], fusedOut[i])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BenchmarkFusionOverhead compares a three-filter pipeline against its
// fully fused form: fusion removes per-firing engine and channel overhead,
// and carries the peeking consumer's history instead of a channel.
func BenchmarkFusionOverhead(b *testing.B) {
	mk := func() []ir.Stream {
		return []ir.Stream{
			mkStateless("A", 1, 1, 1, 0.5),
			mkStateless("B", 3, 1, 1, 2),
			mkStateless("C", 1, 1, 1, 0.25),
		}
	}
	run := func(b *testing.B, mid []ir.Stream) {
		snk, _ := exec.SliceSink("snk")
		children := append([]ir.Stream{ramp("src")}, mid...)
		children = append(children, snk)
		prog := &ir.Program{Name: "t", Top: ir.Pipe("main", children...)}
		e, err := exec.New(prog)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.RunInit(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := e.RunSteady(1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("unfused", func(b *testing.B) { run(b, mk()) })
	b.Run("fused", func(b *testing.B) {
		fp := FusePipelineStream(ir.Pipe("mid", mk()...))
		run(b, []ir.Stream{fp})
	})
}
