package fuse

import (
	"fmt"
	"testing"

	"streamit/internal/ir"
	"streamit/internal/wfunc"
)

// mkPopper builds a filter that pops inside expressions — several pops in
// one statement, a peek after a pop in the same statement, and a pop in an
// if condition — so fusion must re-home pops at statement-relative
// offsets. It pushes push items per firing; stateful ones carry a field.
func mkPopper(name string, peek, pop, push int, stateful bool) *ir.Filter {
	b := wfunc.NewKernel(name, peek, pop, push)
	acc := b.Field("acc", 1)
	x := b.Local("x")
	var body []wfunc.Stmt
	// x = pop() - peek(peek-2): after the pop, the last item of the window.
	first := wfunc.Expr(wfunc.PopE())
	if peek > 1 {
		first = wfunc.SubX(first, wfunc.PeekE(peek-2))
	}
	body = append(body, wfunc.Set(x, first))
	left := pop - 1
	if left > 0 {
		body = append(body, wfunc.IfElse(wfunc.Bin(wfunc.Gt, wfunc.PopE(), x),
			[]wfunc.Stmt{wfunc.Set(x, wfunc.AddX(x, wfunc.C(1)))},
			[]wfunc.Stmt{wfunc.Set(x, wfunc.MulX(x, wfunc.C(0.5)))}))
		left--
	}
	for ; left >= 2; left -= 2 {
		body = append(body, wfunc.Set(x, wfunc.AddX(x, wfunc.MulX(wfunc.PopE(), wfunc.PopE()))))
	}
	if left == 1 {
		body = append(body, wfunc.Pop1())
	}
	if stateful {
		body = append(body, wfunc.SetF(acc, wfunc.AddX(wfunc.MulX(acc, wfunc.C(0.25)), x)))
		x2 := wfunc.Expr(acc)
		for j := 0; j < push; j++ {
			body = append(body, wfunc.Push1(wfunc.AddX(x2, wfunc.Ci(j))))
		}
	} else {
		for j := 0; j < push; j++ {
			body = append(body, wfunc.Push1(wfunc.AddX(x, wfunc.Ci(j))))
		}
	}
	b.WorkBody(body...)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// FuzzFusePipeline fuses two or three filters with arbitrary rates —
// peeking and stateful consumers, pops in expressions, chained fusion —
// and requires the fused filter to be VM-compiled and bit-identical to the
// unfused pipeline on both backends.
func FuzzFusePipeline(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint8(5), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(4), uint8(2), uint8(1), uint8(3), uint8(1), uint8(2), uint8(2), uint8(3), uint8(1), uint8(0x0f))
	f.Add(uint8(2), uint8(2), uint8(3), uint8(9), uint8(2), uint8(1), uint8(6), uint8(1), uint8(2), uint8(0x33))
	f.Fuzz(func(t *testing.T, aPeek, aPop, aPush, bPeek, bPop, bPush, cPeek, cPop, cPush, flags uint8) {
		type rates struct{ peek, pop, push int }
		norm := func(peek, pop, push uint8) rates {
			r := rates{pop: int(pop)%4 + 1, push: int(push)%4 + 1}
			r.peek = r.pop + int(peek)%8
			return r
		}
		ra, rb, rc := norm(aPeek, aPop, aPush), norm(bPeek, bPop, bPush), norm(cPeek, cPop, cPush)
		build := func(name string, r rates, bits uint8) *ir.Filter {
			stateful := bits&1 != 0
			switch {
			case bits&2 != 0:
				return mkPopper(name, r.peek, r.pop, r.push, stateful)
			case stateful:
				return mkStateful(name, r.peek, r.pop, r.push)
			}
			return mkStateless(name, r.peek, r.pop, r.push, 0.5)
		}
		three := flags&0x40 != 0
		mk := func() []*ir.Filter {
			fs := []*ir.Filter{build("A", ra, flags), build("B", rb, flags>>2)}
			if three {
				fs = append(fs, build("C", rc, flags>>4))
			}
			return fs
		}
		label := fmt.Sprintf("a:%v b:%v c:%v flags:%#x", ra, rb, rc, flags)
		checkFused(t, label, mk, func(fs []*ir.Filter) (*ir.Filter, error) {
			if len(fs) == 2 {
				return Pipeline("fused", fs[0], fs[1])
			}
			if flags&0x80 != 0 {
				return Segment("fused", fs)
			}
			// Chained: a fused filter fused again.
			ab, err := Pipeline("ab", fs[0], fs[1])
			if err != nil {
				return nil, err
			}
			return Pipeline("fused", ab, fs[2])
		})
	})
}
