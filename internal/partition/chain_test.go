package partition

import (
	"fmt"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/sched"
)

// flatPlan builds the exec plan of prog and the flattening and schedule of
// its rewritten program.
func flatPlan(t *testing.T, prog *ir.Program, strat Strategy, workers int) (*ExecPlan, *ir.Graph, *sched.Schedule) {
	t.Helper()
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildExecPlan(prog, g, s, ExecPlanOptions{Strategy: strat, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ir.Flatten(plan.Program)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sched.Compute(g2)
	if err != nil {
		t.Fatal(err)
	}
	return plan, g2, s2
}

// optimalHeaviest is the exhaustive min-max DP: the lightest possible
// heaviest run over every cut of the weights (in order) into at most k
// contiguous runs.
func optimalHeaviest(w []int64, k int) int64 {
	n := len(w)
	prefix := make([]int64, n+1)
	for i, x := range w {
		prefix[i+1] = prefix[i] + x
	}
	const none = int64(-1)
	best := make([]int64, n+1) // best[i]: optimum over order[:i] with j runs
	for i := 1; i <= n; i++ {
		best[i] = prefix[i]
	}
	for j := 2; j <= k; j++ {
		next := make([]int64, n+1)
		for i := 1; i <= n; i++ {
			next[i] = none
			for a := 1; a < i; a++ {
				c := max(best[a], prefix[i]-prefix[a])
				if next[i] == none || c < next[i] {
					next[i] = c
				}
			}
			if next[i] == none || best[i] < next[i] {
				next[i] = best[i]
			}
		}
		best = next
	}
	return best[n]
}

// TestLockstepAssignmentIsForwardChain is the machine-independent gate on
// lockstep packing: on every suite app, lockstep strategy and worker
// count, every cross-worker edge flows from a lower worker to a higher
// one, and the heaviest worker carries exactly the exhaustive optimum over
// contiguous cuts of the same topological order.
func TestLockstepAssignmentIsForwardChain(t *testing.T) {
	for _, app := range apps.Suite() {
		for _, strat := range []Strategy{StratTask, StratFineData, StratCoarseData} {
			for _, workers := range []int{2, 3, 4} {
				label := fmt.Sprintf("%s %s/%d", app.Name, strat, workers)
				plan, g2, s2 := flatPlan(t, app.Build(), strat, workers)
				assign := plan.Assign(g2, s2)
				cross := 0
				for _, e := range g2.Edges {
					switch src, dst := assign[e.Src.ID], assign[e.Dst.ID]; {
					case src > dst:
						t.Fatalf("%s: edge %s flows backward, worker %d -> %d", label, e, src, dst)
					case src < dst:
						cross++
					}
				}
				order, err := g2.TopoOrder()
				if err != nil {
					t.Fatal(err)
				}
				nodeW := plan.nodeWeights(g2, s2, nil)
				loads := make([]int64, workers)
				w := make([]int64, len(order))
				for i, n := range order {
					w[i] = nodeW[n.ID]
					loads[assign[n.ID]] += nodeW[n.ID]
				}
				heaviest := int64(0)
				for _, l := range loads {
					heaviest = max(heaviest, l)
				}
				if opt := optimalHeaviest(w, workers); heaviest != opt {
					t.Errorf("%s: heaviest worker %d, contiguous optimum %d", label, heaviest, opt)
				}
				t.Logf("%s: %d of %d edges cross workers", label, cross, len(g2.Edges))
			}
		}
	}
}

// TestChainCutBreaksTiesOnCrossings: of the cuts with the lightest
// heaviest run, the one crossing the fewest items wins.
func TestChainCutBreaksTiesOnCrossings(t *testing.T) {
	// src -> split(a | b) -> join -> c -> snk in that topological order. A
	// heavy source fills worker 0 alone, and every cut of the remaining
	// nodes into two runs ties on the heaviest run. Cutting inside the
	// split-join crosses 2 items, after the joiner 2 items on one edge, and
	// after c (which pops 2, pushes 1) only 1 item: that cut must win.
	g2, err := ir.FlattenStream("tie", ir.Pipe("p",
		heavyFilter("src", 0, 0, 0, 1),
		ir.SJ("sj", ir.RoundRobin(), ir.RoundRobin(),
			heavyFilter("a", 0, 0, 1, 1),
			heavyFilter("b", 0, 0, 1, 1)),
		heavyFilter("c", 0, 0, 2, 1),
		heavyFilter("snk", 0, 0, 1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sched.Compute(g2)
	if err != nil {
		t.Fatal(err)
	}
	order, err := g2.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	nodeW := make([]int64, len(g2.Nodes))
	for _, n := range order {
		nodeW[n.ID] = 1
	}
	nodeW[order[0].ID] = 20
	assign := chainCut(g2, s2, nodeW, 3)
	var got []string
	for _, n := range order {
		got = append(got, fmt.Sprintf("%s:%d", n.Name, assign[n.ID]))
	}
	for _, n := range order {
		want := 0
		switch {
		case n == order[len(order)-1]:
			want = 2
		case n != order[0]:
			want = 1
		}
		if assign[n.ID] != want {
			t.Fatalf("cut %v, want src alone, then everything through c, then snk", got)
		}
	}
}
