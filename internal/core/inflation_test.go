package core

import (
	"fmt"
	"strings"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/partition"
)

// steadyProfile runs a profiled mapped engine for n1 and then n2 steady
// iterations and returns per-node counters of exactly n2-n1 steady
// iterations: every Run restarts the stream and the profiler accumulates,
// so the counters of one initialization cancel out.
func steadyProfile(t *testing.T, me *exec.MappedEngine, n1, n2 int) map[string]obs.FilterProfile {
	t.Helper()
	if err := me.Run(n1); err != nil {
		t.Fatal(err)
	}
	first := me.Profile().ByName()
	if err := me.Run(n2); err != nil {
		t.Fatal(err)
	}
	out := map[string]obs.FilterProfile{}
	for name, p := range me.Profile().ByName() {
		f := first[name]
		// (init + n2) - (init + n1) = total - 2*first.
		out[name] = obs.FilterProfile{
			Name:    name,
			Firings: p.Firings - 2*f.Firings,
			Peeked:  p.Peeked - 2*f.Peeked,
			Popped:  p.Popped - 2*f.Popped,
		}
	}
	return out
}

// sinkItems is the number of items the graph's sinks consumed.
func sinkItems(g *ir.Graph, prof map[string]obs.FilterProfile) int64 {
	var n int64
	for _, nd := range g.Nodes {
		if nd.Filter != nil && nd.Filter.Kernel.Push == 0 {
			n += prof[nd.Name].Popped
		}
	}
	return n
}

// TestCoarseningNeverInflatesWork checks, on every suite app under the
// coarsening strategies at 2 and 4 workers, that the rewrite does no more
// work than the unfused program under task, using only the profilers'
// machine-independent counters over a steady-state window:
//   - per output, a fused segment's constituent firings and input-tape
//     peeks are at most those of its constituents under task;
//   - every fission replica peeks at most as much per firing as its inner
//     filter's constituents do.
func TestCoarseningNeverInflatesWork(t *testing.T) {
	const n1, n2 = 2, 6
	for _, app := range apps.Suite() {
		for _, workers := range []int{2, 4} {
			c, err := Compile(app.Build(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			taskME, err := c.MappedEngineOpts(RunOptions{MapStrategy: partition.StratTask, Workers: workers, Profile: true})
			if err != nil {
				t.Fatal(err)
			}
			task := steadyProfile(t, taskME, n1, n2)
			taskOut := sinkItems(taskME.G, task)
			for _, strat := range []partition.Strategy{partition.StratCoarseData, partition.StratCombined} {
				me, plan, err := c.mappedEngine(RunOptions{MapStrategy: strat, Workers: workers, Profile: true})
				if err != nil {
					t.Fatal(err)
				}
				prof := steadyProfile(t, me, n1, n2)
				out := sinkItems(me.G, prof)
				if out <= 0 || taskOut <= 0 {
					t.Fatalf("%s %s/%d: no output in the steady window", app.Name, strat, workers)
				}
				label := fmt.Sprintf("%s %s/%d", app.Name, strat, workers)
				checkInflation(t, label, me.G, prof, out, plan, taskME.G, task, taskOut)
			}
		}
	}
}

// segStats accumulates one fused segment's counters over its replicas.
type segStats struct {
	cons   []*ir.Node // constituents in the task graph
	m      []int64    // constituent firings per segment firing
	fired  int64
	peeked int64
}

func checkInflation(t *testing.T, label string, g *ir.Graph, prof map[string]obs.FilterProfile, out int64,
	plan *partition.ExecPlan, taskG *ir.Graph, task map[string]obs.FilterProfile, taskOut int64) {
	t.Helper()
	segs := map[*ir.Filter]*segStats{} // keyed by the segment's first filter
	for _, nd := range g.Nodes {
		if nd.Filter == nil || plan.Segments[nd.Filter] == nil {
			continue
		}
		seg := plan.Segments[nd.Filter]
		s := segs[seg[0]]
		if s == nil {
			s = &segStats{m: make([]int64, len(seg))}
			for _, f := range seg {
				s.cons = append(s.cons, taskG.FilterNode[f])
			}
			// Multiplicities from the output side: the last constituent
			// pushes the segment's push rate.
			last := len(seg) - 1
			s.m[last] = int64(nd.Filter.Kernel.Push / seg[last].Kernel.Push)
			for i := last - 1; i >= 0; i-- {
				num := s.m[i+1] * int64(seg[i+1].Kernel.Pop)
				if num%int64(seg[i].Kernel.Push) != 0 {
					t.Fatalf("%s: segment %s rates do not balance at %s", label, nd.Name, seg[i].Kernel.Name)
				}
				s.m[i] = num / int64(seg[i].Kernel.Push)
			}
			segs[seg[0]] = s
		}
		p := prof[nd.Name]
		s.fired += p.Firings
		s.peeked += p.Peeked
		if len(seg) == 1 || strings.Contains(nd.Name, "/f") {
			// A replica: peeks per firing at most sum_i m_i * peeks_i per
			// constituent firing under task.
			var bound float64
			for i, o := range s.cons {
				if tp := task[o.Name]; tp.Firings > 0 {
					bound += float64(s.m[i]) * float64(tp.Peeked) / float64(tp.Firings)
				}
			}
			if p.Firings > 0 && float64(p.Peeked)/float64(p.Firings) > bound*(1+1e-12) {
				t.Errorf("%s: replica %s peeks %.2f items per firing, its constituents %.2f",
					label, nd.Name, float64(p.Peeked)/float64(p.Firings), bound)
			}
		}
	}
	for _, s := range segs {
		var consFired, taskFired, taskPeeked int64
		for i, o := range s.cons {
			consFired += s.m[i] * s.fired
			taskFired += task[o.Name].Firings
			taskPeeked += task[o.Name].Peeked
		}
		name := s.cons[0].Name
		// a/out <= b/taskOut  <=>  a*taskOut <= b*out.
		if consFired*taskOut > taskFired*out {
			t.Errorf("%s: segment from %s fires its constituents %d times for %d outputs; task: %d for %d",
				label, name, consFired, out, taskFired, taskOut)
		}
		if s.peeked*taskOut > taskPeeked*out {
			t.Errorf("%s: segment from %s peeks %d items for %d outputs; task: %d for %d",
				label, name, s.peeked, out, taskPeeked, taskOut)
		}
	}
}
