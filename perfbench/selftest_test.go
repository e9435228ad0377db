package main

import (
	"math"
	"math/rand"
	"testing"
)

// smallConfig is a self-test run: tiny sizes, a short budget, the
// repository one directory up.
func smallConfig(t *testing.T, workload string, traced bool) *config {
	t.Helper()
	cfg := &config{
		workload: workload, seed: 1, seconds: 0.3, traced: traced,
		root: "..", out: t.TempDir(), rng: rand.New(rand.NewSource(1)), small: true,
	}
	if traced {
		cfg.tr = newTracer()
	}
	return cfg
}

// TestEveryMetricEmitted runs every workload at tiny sizes, untraced and
// traced, and checks that each run passes its oracle, that each emits
// every end-to-end metric of BENCHMARK.json with its unit, and that every
// per-layer metric is measured (not filled in) by some traced workload.
func TestEveryMetricEmitted(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{}
	for name, drive := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := drive(smallConfig(t, name, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%s traced=%v: %d of %d operations failed: %v", name, traced, rep.failed, rep.attempted, rep.errs)
			}
			ms, err := contractMetrics(sp, rep, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !traced {
				for _, m := range sp.EndToEnd {
					if v := ms[m.Name].Value; !(v > 0) || math.IsInf(v, 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want a positive finite value", name, m.Name, v)
					}
				}
				continue
			}
			for _, m := range sp.PerLayer {
				if _, ok := rep.get(m.Name); ok {
					measured[m.Name] = true
				}
			}
		}
	}
	for _, m := range sp.PerLayer {
		if !measured[m.Name] {
			t.Errorf("no traced workload measures per-layer metric %s", m.Name)
		}
	}
}

// flip corrupts one item of a stream in its lowest mantissa bit: the
// smallest change a bit-for-bit oracle must still catch.
func flip(xs []float64, i int) {
	xs[i] = math.Float64frombits(math.Float64bits(xs[i]) ^ 1)
}

// TestOracleRejectsCorruption: each of the three oracles accepts a real
// run's output and rejects it once one item is corrupted.
func TestOracleRejectsCorruption(t *testing.T) {
	t.Run("batch", func(t *testing.T) {
		all, err := setupBatch([]string{"FMRadio"}, false)
		if err != nil {
			t.Fatal(err)
		}
		a := all[0]
		if err := a.reference(); err != nil {
			t.Fatal(err)
		}
		for _, cl := range a.cells {
			if _, err := cl.job(nil, 0, false); err != nil {
				t.Fatalf("%s: %v", cl.name(), err)
			}
			flip(a.recs[0].got, len(a.recs[0].got)/2)
			if err := checkPrefix(a.recs, a.ref, cl.wantLen); err == nil {
				t.Errorf("%s: corrupted stream accepted", cl.name())
			}
		}
	})
	t.Run("serve", func(t *testing.T) {
		cfg := smallConfig(t, "serve-open", false)
		progs, err := loadServed(cfg.root)
		if err != nil {
			t.Fatal(err)
		}
		fl, err := setupFleet(cfg, progs, false)
		if err != nil {
			t.Fatal(err)
		}
		defer fl.close()
		for _, sl := range fl.slots[:2] {
			sl.sampled = true
			for i := 0; i < 3; i++ {
				r := &request{id: int64(i + 1), slot: sl.idx, iters: smallIters}
				if err := fl.serveRequest(sl, r); err != nil {
					t.Fatal(err)
				}
			}
			if err := sl.verify(); err != nil {
				t.Fatalf("%s: %v", sl.prog.name, err)
			}
			flip(sl.out, len(sl.out)-1)
			if err := sl.verify(); err == nil {
				t.Errorf("%s: corrupted session stream accepted", sl.prog.name)
			}
		}
	})
	t.Run("dist", func(t *testing.T) {
		cfg := smallConfig(t, "dist-epoch", false)
		ref, err := distReference(40)
		if err != nil {
			t.Fatal(err)
		}
		run, err := runSharded(cfg, 40, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkDist(run, ref); err != nil {
			t.Fatal(err)
		}
		for _, out := range run.res.Outputs {
			flip(out, 0)
			break
		}
		if err := checkDist(run, ref); err == nil {
			t.Error("corrupted sharded stream accepted")
		}
	})
}
