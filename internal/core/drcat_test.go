package core

import (
	"testing"

	"catsim/internal/rng"
)

// fillTree drives uniform traffic until every counter is active.
func fillTree(t *testing.T, tree *Tree, seed uint64) {
	t.Helper()
	src := rng.NewXoshiro256(seed)
	rows := tree.Config().Rows
	for i := 0; i < 1<<20 && !tree.Full(); i++ {
		tree.Access(rng.Intn(src, rows))
	}
	if !tree.Full() {
		t.Fatal("could not fill tree")
	}
}

func TestDRCATWeightsTrackHotCounter(t *testing.T) {
	cfg := Config{
		Rows: 1 << 12, Counters: 16, MaxLevels: 7,
		RefreshThreshold: 256, Policy: DRCAT,
	}
	tree := mustTree(t, cfg)
	fillTree(t, tree, 1)

	// Hammer one row until a refresh fires; its leaf's weight must rise.
	hot := 77
	var fired bool
	for i := 0; i < 4*int(cfg.RefreshThreshold); i++ {
		if _, _, r := tree.Access(hot); r {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("no refresh fired")
	}
	var hotWeight uint8
	for _, l := range tree.Leaves() {
		if l.Lo <= hot && hot <= l.Hi {
			hotWeight = l.Weight
		}
	}
	if hotWeight == 0 {
		t.Error("hot leaf weight did not increase")
	}
}

func TestDRCATReconfigurationSplitsHotMergesCold(t *testing.T) {
	cfg := Config{
		Rows: 1 << 12, Counters: 16, MaxLevels: 9,
		RefreshThreshold: 256, Policy: DRCAT,
	}
	tree := mustTree(t, cfg)
	fillTree(t, tree, 2)

	var hotDepthBefore int
	hot := 99
	for _, l := range tree.Leaves() {
		if l.Lo <= hot && hot <= l.Hi {
			hotDepthBefore = l.Depth
		}
	}

	// Hammer one row across enough refresh triggers to saturate its weight
	// and force reconfigurations.
	for i := 0; i < 64*int(cfg.RefreshThreshold); i++ {
		tree.Access(hot)
		if err := error(nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s := tree.Stats()
	if s.Reconfigs == 0 {
		t.Fatal("expected at least one DRCAT reconfiguration")
	}
	var hotDepthAfter int
	for _, l := range tree.Leaves() {
		if l.Lo <= hot && hot <= l.Hi {
			hotDepthAfter = l.Depth
		}
	}
	if hotDepthAfter <= hotDepthBefore {
		t.Errorf("hot leaf depth %d -> %d; reconfiguration should deepen it",
			hotDepthBefore, hotDepthAfter)
	}
	// Leaf count must be unchanged: merges release exactly what splits use.
	if got := len(tree.Leaves()); got != cfg.Counters {
		t.Errorf("leaves = %d, want %d", got, cfg.Counters)
	}
}

func TestDRCATReconfigurationReducesRefreshCostForMovingHotspot(t *testing.T) {
	// The paper's motivation for DRCAT: when the hot spot moves, the
	// reconfigured tree refreshes fewer rows than a frozen shape would.
	// Compare rows refreshed by DRCAT against PRCAT whose interval never
	// ends (i.e. a plain CAT shaped by the first phase only).
	run := func(policy Policy) int64 {
		cfg := Config{
			Rows: 1 << 12, Counters: 16, MaxLevels: 9,
			RefreshThreshold: 128, Policy: policy,
		}
		tree, err := NewTree(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.NewXoshiro256(5)
		// Phase 1 shapes the tree around rows 0..63.
		for i := 0; i < 1<<15; i++ {
			tree.Access(rng.Intn(src, 64))
		}
		// Phase 2 moves the hot spot to the opposite end.
		for i := 0; i < 1<<15; i++ {
			tree.Access(4000 + rng.Intn(src, 64))
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return tree.Stats().RowsRefreshed
	}
	drcat := run(DRCAT)
	prcatFrozen := run(PRCAT) // never reset mid-test; same tree rules minus reconfig
	if drcat >= prcatFrozen {
		t.Errorf("DRCAT refreshed %d rows, frozen tree %d; reconfiguration should win", drcat, prcatFrozen)
	}
}

func TestDRCATWeightBitsCap(t *testing.T) {
	cfg := Config{
		Rows: 1 << 10, Counters: 8, MaxLevels: 6,
		RefreshThreshold: 64, Policy: DRCAT, WeightBits: 3,
	}
	tree := mustTree(t, cfg)
	fillTree(t, tree, 3)
	for i := 0; i < 200*int(cfg.RefreshThreshold); i++ {
		tree.Access(1)
	}
	for _, l := range tree.Leaves() {
		if l.Weight > 7 {
			t.Errorf("weight %d exceeds 3-bit cap", l.Weight)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDRCATReconfigSkippedAtMaxDepth(t *testing.T) {
	// With MaxLevels equal to the pre-split depth the hot counter can never
	// deepen; reconfiguration must refuse rather than corrupt the tree.
	cfg := Config{
		Rows: 1 << 8, Counters: 8, MaxLevels: 4, PreSplit: 4,
		RefreshThreshold: 32, Policy: DRCAT,
		Ladder: UniformLadder(4, 32),
	}
	tree := mustTree(t, cfg)
	for i := 0; i < 100*int(cfg.RefreshThreshold); i++ {
		tree.Access(3)
	}
	if got := tree.Stats().Reconfigs; got != 0 {
		t.Errorf("Reconfigs = %d, want 0 at depth cap", got)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDRCATManyReconfigurationsStaySound(t *testing.T) {
	// Alternate the hot spot between regions; every reconfiguration batch
	// must preserve the partition and counter-bound invariants.
	cfg := Config{
		Rows: 1 << 12, Counters: 16, MaxLevels: 10,
		RefreshThreshold: 64, Policy: DRCAT,
	}
	tree := mustTree(t, cfg)
	fillTree(t, tree, 4)
	spots := []int{10, 2000, 3900, 800, 3000}
	for round, s := range spots {
		for i := 0; i < 40*int(cfg.RefreshThreshold); i++ {
			tree.Access(s)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("round %d (hot=%d): %v", round, s, err)
		}
	}
	if tree.Stats().Reconfigs < 2 {
		t.Errorf("Reconfigs = %d, want several across moving hot spots", tree.Stats().Reconfigs)
	}
}
