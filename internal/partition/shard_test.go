package partition

import (
	"testing"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/sched"
)

func buildShardedPlan(t *testing.T, strat Strategy, workers int) (*ExecPlan, *ir.Graph, *sched.Schedule) {
	t.Helper()
	return flatPlan(t, apps.FMRadio(4, 16), strat, workers)
}

// TestAssignSharded: every node lands in a valid global worker slot, both
// shards get real work, and the second level actually spreads a shard's
// nodes over its local workers.
func TestAssignSharded(t *testing.T) {
	plan, g2, s2 := buildShardedPlan(t, StratCoarseData, 4)
	const shards, perShard = 2, 2
	assign, err := plan.AssignSharded(g2, s2, shards, perShard, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != len(g2.Nodes) {
		t.Fatalf("assignment covers %d of %d nodes", len(assign), len(g2.Nodes))
	}
	perWorker := make([]int, shards*perShard)
	perShardN := make([]int, shards)
	for id, w := range assign {
		if w < 0 || w >= shards*perShard {
			t.Fatalf("node %d assigned to worker %d of %d", id, w, shards*perShard)
		}
		perWorker[w]++
		perShardN[w/perShard]++
	}
	for sh, n := range perShardN {
		if n == 0 {
			t.Fatalf("shard %d received no nodes: per-worker %v", sh, perWorker)
		}
	}
	busyWorkers := 0
	for _, n := range perWorker {
		if n > 0 {
			busyWorkers++
		}
	}
	if busyWorkers < shards+1 {
		t.Fatalf("second-level packing left work on only %d workers: %v", busyWorkers, perWorker)
	}

	// Determinism: the distributed shards each compute this locally and
	// must agree with the coordinator.
	again, err := plan.AssignSharded(g2, s2, shards, perShard, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := range assign {
		if assign[id] != again[id] {
			t.Fatalf("sharded assignment not deterministic at node %d: %d vs %d", id, assign[id], again[id])
		}
	}
}

// TestAssignShardedMeasured: live measurements steer the shard-level
// packing — a node measured as the dominant cost ends up alone against
// the rest, and the call stays valid.
func TestAssignShardedMeasured(t *testing.T) {
	plan, g2, s2 := buildShardedPlan(t, StratTask, 4)
	// Find a mid-graph filter and declare it overwhelmingly expensive.
	var hot string
	for _, n := range g2.Nodes {
		if n.Kind == ir.NodeFilter && !n.IsSource() && !n.IsSink() {
			hot = n.Name
			break
		}
	}
	if hot == "" {
		t.Fatal("no interior filter found")
	}
	measured := map[string]int64{hot: 1_000_000}
	assign, err := plan.AssignSharded(g2, s2, 2, 2, measured)
	if err != nil {
		t.Fatal(err)
	}
	var hotShard int
	for _, n := range g2.Nodes {
		if n.Name == hot {
			hotShard = assign[n.ID] / 2
		}
	}
	// The hot node's shard should carry fewer peers than the other shard.
	counts := []int{0, 0}
	for _, w := range assign {
		counts[w/2]++
	}
	other := 1 - hotShard
	if counts[hotShard] > counts[other] {
		t.Fatalf("hot filter %s's shard %d carries %d nodes vs %d on the other; measured weights ignored",
			hot, hotShard, counts[hotShard], counts[other])
	}
}

// TestAssignShardedRejects: pipelined plans and degenerate shapes fail
// loudly.
func TestAssignShardedRejects(t *testing.T) {
	plan, g2, s2 := buildShardedPlan(t, StratCoarseData, 4)
	if _, err := plan.AssignSharded(g2, s2, 0, 2, nil); err == nil {
		t.Fatal("0 shards should be rejected")
	}
	if _, err := plan.AssignSharded(g2, s2, 2, 0, nil); err == nil {
		t.Fatal("0 workers per shard should be rejected")
	}
	swp, g2p, s2p := buildShardedPlan(t, StratSWP, 4)
	if !swp.Pipelined {
		t.Skip("SWP strategy produced a lockstep plan")
	}
	if _, err := swp.AssignSharded(g2p, s2p, 2, 2, nil); err == nil {
		t.Fatal("pipelined plans should be rejected")
	}
}

// TestAssignShardedIsChain: the sharded assignment is one chain cut —
// along a topological order each shard's nodes form one contiguous
// block, shard 0 first, and every cross-shard edge flows from a
// lower-numbered shard to a higher-numbered one.
func TestAssignShardedIsChain(t *testing.T) {
	for _, shape := range [][2]int{{2, 2}, {3, 2}, {2, 3}} {
		shards, perShard := shape[0], shape[1]
		plan, g2, s2 := buildShardedPlan(t, StratCoarseData, shards*perShard)
		assign, err := plan.AssignSharded(g2, s2, shards, perShard, nil)
		if err != nil {
			t.Fatal(err)
		}
		order, err := g2.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(order); i++ {
			if prev, cur := assign[order[i-1].ID]/perShard, assign[order[i].ID]/perShard; cur < prev {
				t.Fatalf("%dx%d: shard %d resumes after shard %d at %s", shards, perShard, cur, prev, order[i].Name)
			}
		}
		for _, e := range g2.Edges {
			if src, dst := assign[e.Src.ID]/perShard, assign[e.Dst.ID]/perShard; src > dst {
				t.Fatalf("%dx%d: edge %s flows from shard %d back to shard %d", shards, perShard, e, src, dst)
			}
		}
	}
}
