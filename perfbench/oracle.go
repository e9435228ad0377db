package main

import (
	"fmt"
	"math"

	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// recorder replaces one sink filter with a native filter of the same input
// rates that keeps every item it pops, so the outputs of engines and graph
// rewrites can be compared value by value.
type recorder struct {
	filter *ir.Filter
	got    []float64
}

func newRecorder(f *ir.Filter) *recorder {
	k := f.Kernel
	peek := max(k.Peek, k.Pop)
	b := wfunc.NewKernel(k.Name, peek, k.Pop, 0)
	b.Dynamic() // the IL body is a stub; the native closure does the work
	b.WorkBody()
	kc := b.Build()
	kc.Dynamic = false
	kc.Peek, kc.Pop, kc.Push = peek, k.Pop, 0
	r := &recorder{}
	r.filter = &ir.Filter{
		Kernel: kc,
		In:     f.In,
		Out:    ir.TypeVoid,
		WorkFn: func(in, _ wfunc.Tape, _ *wfunc.State) {
			for i := 0; i < kc.Pop; i++ {
				r.got = append(r.got, in.Pop())
			}
		},
	}
	return r
}

// swapSinks replaces every static sink filter of prog with a recorder and
// returns the recorders in a deterministic walk order.
func swapSinks(prog *ir.Program) []*recorder {
	var recs []*recorder
	var walk func(s ir.Stream) ir.Stream
	walk = func(s ir.Stream) ir.Stream {
		switch s := s.(type) {
		case *ir.Filter:
			if s.Kernel.Push == 0 && s.Kernel.Pop > 0 && !s.Kernel.Dynamic {
				r := newRecorder(s)
				recs = append(recs, r)
				return r.filter
			}
		case *ir.Pipeline:
			for i, c := range s.Children {
				s.Children[i] = walk(c)
			}
		case *ir.SplitJoin:
			for i, c := range s.Children {
				s.Children[i] = walk(c)
			}
		case *ir.FeedbackLoop:
			s.Body = walk(s.Body)
			if s.Loop != nil {
				s.Loop = walk(s.Loop)
			}
		}
		return s
	}
	prog.Top = walk(prog.Top)
	return recs
}

// resetAll empties every recorder, keeping its capacity.
func resetAll(recs []*recorder) {
	for _, r := range recs {
		r.got = r.got[:0]
	}
}

// itemsOf counts the items every recorder holds.
func itemsOf(recs []*recorder) int64 {
	var n int64
	for _, r := range recs {
		n += int64(len(r.got))
	}
	return n
}

// sinkRates returns, per recorder, the items it receives per steady
// iteration and during initialization in the graph g scheduled by s.
func sinkRates(g *ir.Graph, s *sched.Schedule, recs []*recorder) (steady, init []int, err error) {
	steady = make([]int, len(recs))
	init = make([]int, len(recs))
	for i, r := range recs {
		n := g.FilterNode[r.filter]
		if n == nil {
			return nil, nil, fmt.Errorf("sink %s is not a node of the executed graph", r.filter.Kernel.Name)
		}
		steady[i] = s.Reps[n.ID] * r.filter.Kernel.Pop
		init[i] = s.InitReps[n.ID] * r.filter.Kernel.Pop
	}
	return steady, init, nil
}

// sameBits reports whether got equals want item for item, compared on
// math.Float64bits so that NaN payloads and signed zeros count.
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d items, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("item %d is %v (%#x), want %v (%#x)", i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

// checkPrefix compares the streams of recs, item for item, with the first
// len(got) items of the reference streams ref, after checking each stream
// has exactly the expected length.
func checkPrefix(recs []*recorder, ref [][]float64, wantLen []int) error {
	if len(recs) != len(ref) {
		return fmt.Errorf("%d sinks, reference has %d", len(recs), len(ref))
	}
	for i, r := range recs {
		if len(r.got) != wantLen[i] {
			return fmt.Errorf("sink %d (%s): %d items, want %d", i, r.filter.Kernel.Name, len(r.got), wantLen[i])
		}
		if wantLen[i] > len(ref[i]) {
			return fmt.Errorf("sink %d (%s): reference holds %d items, need %d", i, r.filter.Kernel.Name, len(ref[i]), wantLen[i])
		}
		if err := sameBits(r.got, ref[i][:wantLen[i]]); err != nil {
			return fmt.Errorf("sink %d (%s): %w", i, r.filter.Kernel.Name, err)
		}
	}
	return nil
}
