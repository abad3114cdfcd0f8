package core

import (
	"fmt"
	"testing"

	"catsim/internal/rng"
)

// The production Tree must be observationally indistinguishable from the
// pointer-linked reference ptrTree: same Access return values on every
// call, same statistics, same occupancy, same leaves (ranges, depths,
// values, weights) and same DRCAT reconfiguration decisions. These
// differential tests drive both implementations with identical traces —
// uniform random rows, hammering storms that force refresh/reconfigure
// churn, and interval boundaries — and fail on the first divergence.

// diffConfigs spans the shapes that exercise every code path: tiny trees,
// the paper's defaults, saturated trees (M == leaves at presplit), deep
// ladders, and wide weight registers.
func diffConfigs() []Config {
	return []Config{
		{Rows: 1024, Counters: 16, MaxLevels: 8, RefreshThreshold: 64, Policy: PRCAT},
		{Rows: 1024, Counters: 16, MaxLevels: 8, RefreshThreshold: 64, Policy: DRCAT},
		{Rows: 4096, Counters: 64, MaxLevels: 11, RefreshThreshold: 512, Policy: DRCAT},
		{Rows: 4096, Counters: 64, MaxLevels: 11, RefreshThreshold: 512, Policy: PRCAT},
		{Rows: 512, Counters: 4, MaxLevels: 10, RefreshThreshold: 32, Policy: DRCAT, WeightBits: 3},
		{Rows: 256, Counters: 8, MaxLevels: 9, RefreshThreshold: 16, Policy: DRCAT, PreSplit: 1},
		{Rows: 256, Counters: 1, MaxLevels: 5, RefreshThreshold: 16, Policy: DRCAT},
		{Rows: 2048, Counters: 2048, MaxLevels: 12, RefreshThreshold: 128, Policy: DRCAT},
	}
}

// leafStride is how many accesses pass between leaf-by-leaf comparisons:
// every access normally, every 97th under -short, where the race pass
// would otherwise spend minutes walking the 2048-counter trees. Access
// results, statistics and occupancy are compared on every access either
// way.
func leafStride() int {
	if testing.Short() {
		return 97
	}
	return 1
}

// comparePair asserts both trees agree on one access and on all summary
// state, leaf by leaf every leafStride steps. step identifies the failing
// access in the trace.
func comparePair(t *testing.T, ref *ptrTree, tree *Tree, row, step int) {
	t.Helper()
	rl, rh, rr := ref.Access(row)
	fl, fh, fr := tree.Access(row)
	if rl != fl || rh != fh || rr != fr {
		t.Fatalf("step %d row %d: pointer (%d,%d,%v) != tree (%d,%d,%v)",
			step, row, rl, rh, rr, fl, fh, fr)
	}
	if ref.Stats() != tree.Stats() {
		t.Fatalf("step %d: stats diverge\npointer %+v\ntree    %+v", step, ref.Stats(), tree.Stats())
	}
	if ref.ActiveCounters() != tree.ActiveCounters() || ref.Full() != tree.Full() {
		t.Fatalf("step %d: occupancy diverges: pointer %d/%v, tree %d/%v",
			step, ref.ActiveCounters(), ref.Full(), tree.ActiveCounters(), tree.Full())
	}
	if step%leafStride() == 0 {
		compareLeaves(t, ref, tree, step)
	}
}

// compareLeaves asserts both trees agree on every leaf except its
// storage index (a counter-array slot in ptrTree, a heap slot in Tree),
// and that both pass CheckInvariants.
func compareLeaves(t *testing.T, ref *ptrTree, tree *Tree, step int) {
	t.Helper()
	rls, tls := ref.Leaves(), tree.Leaves()
	if len(rls) != len(tls) {
		t.Fatalf("step %d: %d pointer leaves, %d tree leaves", step, len(rls), len(tls))
	}
	for k := range rls {
		r, f := rls[k], tls[k]
		if r.Lo != f.Lo || r.Hi != f.Hi || r.Depth != f.Depth || r.Value != f.Value || r.Weight != f.Weight {
			t.Fatalf("step %d: leaf %d diverges: pointer %+v, tree %+v", step, k, r, f)
		}
	}
	if err := ref.CheckInvariants(); err != nil {
		t.Fatalf("step %d: pointer: %v", step, err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("step %d: tree: %v", step, err)
	}
}

func newPair(t *testing.T, cfg Config) (*ptrTree, *Tree) {
	t.Helper()
	ref, err := newPtrTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ref, tree
}

// TestFlatMatchesPointerRandomTrace drives both trees with uniform random
// rows plus periodic interval boundaries.
func TestFlatMatchesPointerRandomTrace(t *testing.T) {
	for _, cfg := range diffConfigs() {
		cfg := cfg
		t.Run(fmt.Sprintf("%s_M%d_R%d", cfg.Policy, cfg.Counters, cfg.Rows), func(t *testing.T) {
			ref, tree := newPair(t, cfg)
			src := rng.NewXoshiro256(42)
			for step := 0; step < 60000; step++ {
				row := int(rng.Float64(src) * float64(cfg.Rows))
				comparePair(t, ref, tree, row, step)
				if step%7919 == 7918 {
					ref.OnIntervalBoundary()
					tree.OnIntervalBoundary()
					compareLeaves(t, ref, tree, step)
				}
			}
			compareLeaves(t, ref, tree, -1)
		})
	}
}

// TestFlatMatchesPointerReconfigStorm hammers a small, periodically
// shifting set of rows so counters hit the refresh threshold constantly —
// the regime where DRCAT merges and splits on nearly every refresh and
// any divergence in merge-candidate choice shows up immediately.
func TestFlatMatchesPointerReconfigStorm(t *testing.T) {
	for _, cfg := range diffConfigs() {
		cfg := cfg
		t.Run(fmt.Sprintf("%s_M%d_R%d", cfg.Policy, cfg.Counters, cfg.Rows), func(t *testing.T) {
			ref, tree := newPair(t, cfg)
			src := rng.NewXoshiro256(7)
			base := 0
			for step := 0; step < 80000; step++ {
				if step%4096 == 4095 {
					// Shift the hammered neighbourhood so the hot region
					// moves, forcing merges of the now-cold subtree.
					base = int(rng.Float64(src) * float64(cfg.Rows))
				}
				// Double-sided hammering around the moving base with an
				// occasional far row to keep cold leaves populated.
				var row int
				switch step % 8 {
				case 7:
					row = int(rng.Float64(src) * float64(cfg.Rows))
				case 3:
					row = (base + 2) % cfg.Rows
				default:
					row = base % cfg.Rows
				}
				comparePair(t, ref, tree, row, step)
				if step%17389 == 17388 {
					ref.OnIntervalBoundary()
					tree.OnIntervalBoundary()
					compareLeaves(t, ref, tree, step)
				}
			}
			compareLeaves(t, ref, tree, -1)
			st := tree.Stats()
			if cfg.Policy == DRCAT && cfg.Counters >= 4 && cfg.Counters < cfg.Rows && st.Reconfigs == 0 {
				t.Errorf("storm produced no reconfigs (refreshes %d) — test not exercising DRCAT surgery", st.RefreshEvents)
			}
		})
	}
}

// TestFlatProtectionInvariant spot-checks the tree's own guarantee
// independently of the reference: between refreshes of a row's
// neighbourhood, no row accumulates more than RefreshThreshold
// activations without Access reporting a refresh range covering it.
func TestFlatProtectionInvariant(t *testing.T) {
	cfg := Config{Rows: 512, Counters: 16, MaxLevels: 9, RefreshThreshold: 32, Policy: DRCAT}
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acts := make([]uint32, cfg.Rows)
	src := rng.NewXoshiro256(99)
	hot := 100
	for step := 0; step < 200000; step++ {
		var row int
		if rng.Float64(src) < 0.7 {
			row = hot + step%3
		} else {
			row = int(rng.Float64(src) * float64(cfg.Rows))
		}
		acts[row]++
		if acts[row] > cfg.RefreshThreshold {
			t.Fatalf("step %d: row %d reached %d activations without refresh", step, row, acts[row])
		}
		lo, hi, refresh := tree.Access(row)
		if refresh {
			for r := lo; r <= hi; r++ {
				acts[r] = 0
			}
		}
		if step%5000 == 4999 {
			tree.OnIntervalBoundary()
			for i := range acts {
				acts[i] = 0
			}
			hot = int(rng.Float64(src) * float64(cfg.Rows-8))
		}
	}
}
