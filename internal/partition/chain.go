package partition

import (
	"math"
	"slices"

	"streamit/internal/ir"
	"streamit/internal/sched"
)

// Lockstep plans pack onto workers as a chain: one topological order of
// the rewritten graph is cut into contiguous runs and run r goes to
// worker r. Every cross-worker edge then points from a lower worker to a
// higher one, so the mapped engine's bounded batch channels let worker r
// fire steady iteration i+1 while worker r+1 still fires iteration i —
// the coarse-grained pipeline parallelism of contiguous graph regions —
// instead of workers handing batches back and forth inside every
// iteration.

// chainCut splits a topological order of g2 into min(runs, nodes)
// non-empty contiguous runs over the per-node weights nodeW and returns
// each node's run index. The cut minimizes the heaviest run; among cuts
// with that heaviest run it takes the one with the fewest items crossing
// between runs per steady iteration (ties: earliest cut points).
func chainCut(g2 *ir.Graph, s2 *sched.Schedule, nodeW []int64, runs int) []int {
	assign := make([]int, len(g2.Nodes))
	order, err := g2.TopoOrder()
	if err != nil {
		order = g2.Nodes
	}
	n := len(order)
	if n == 0 {
		return assign
	}
	k := min(runs, n)
	pos := make([]int, len(g2.Nodes))
	prefix := make([]int64, n+1)
	for i, nd := range order {
		pos[nd.ID] = i
		prefix[i+1] = prefix[i] + nodeW[nd.ID]
	}
	capacity := minMaxRun(prefix, k)

	// cost[j][b] is the fewest crossing items over cuts of order[:b] into
	// j runs of at most capacity each; from[j][b] is the last run's start.
	// A run [a, b) adds the items on edges entering it from earlier runs,
	// so every crossing edge is charged exactly once, at its consumer.
	cost := make([][]int64, k+1)
	from := make([][]int, k+1)
	for j := range cost {
		cost[j] = make([]int64, n+1)
		from[j] = make([]int, n+1)
		for b := range cost[j] {
			cost[j][b] = math.MaxInt64
		}
	}
	cost[0][0] = 0
	for a := 0; a < n; a++ {
		if !slices.ContainsFunc(cost[:k], func(c []int64) bool { return c[a] != math.MaxInt64 }) {
			continue // no cut of order[:a] into fewer than k runs fits
		}
		var in int64
		for b := a + 1; b <= n && prefix[b]-prefix[a] <= capacity; b++ {
			for _, e := range order[b-1].In {
				if !e.Back && pos[e.Src.ID] < a {
					in += int64(e.Src.PushPort(e.SrcPort)) * int64(s2.Reps[e.Src.ID])
				}
			}
			for j := 1; j <= k; j++ {
				if prev := cost[j-1][a]; prev != math.MaxInt64 && prev+in < cost[j][b] {
					cost[j][b], from[j][b] = prev+in, a
				}
			}
		}
	}
	// Splitting a run never raises the heaviest, so a cut into exactly k
	// runs within capacity exists whenever one into at most k does.
	for j, b := k, n; j > 0; j-- {
		a := from[j][b]
		for _, nd := range order[a:b] {
			assign[nd.ID] = j - 1
		}
		b = a
	}
	return assign
}

// minMaxRun returns the smallest capacity at which the weights whose
// prefix sums are given split into at most k contiguous runs (binary
// search over the greedy packing, which is exact for contiguous runs).
func minMaxRun(prefix []int64, k int) int64 {
	n := len(prefix) - 1
	var lo int64
	for i := 0; i < n; i++ {
		lo = max(lo, prefix[i+1]-prefix[i])
	}
	hi := prefix[n]
	for lo < hi {
		c := lo + (hi-lo)/2
		runs, start := 1, 0
		for i := 1; i <= n; i++ {
			if prefix[i]-prefix[start] > c {
				runs, start = runs+1, i-1
			}
		}
		if runs <= k {
			hi = c
		} else {
			lo = c + 1
		}
	}
	return lo
}
