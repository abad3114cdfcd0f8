package core

import (
	"strings"
	"testing"
)

// TestCheckInvariantsCatchesCorruption corrupts a grown tree one way at a
// time and requires CheckInvariants to name each corruption, while the
// pristine tree passes.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	cfg := Config{Rows: 256, Counters: 8, MaxLevels: 5, RefreshThreshold: 16, Policy: DRCAT}
	top := cfg.MaxLevels - 1
	// grown hammers row 0 until its leaf reaches depth L-1, leaving the
	// pre-split leaves at depth 2 elsewhere.
	grown := func(t *testing.T) *Tree {
		t.Helper()
		tree := mustTree(t, cfg)
		for i := 0; i < 4*int(cfg.RefreshThreshold); i++ {
			tree.Access(0)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("pristine tree: %v", err)
		}
		return tree
	}
	// leafAt returns the heap slot of the first leaf at the given depth.
	leafAt := func(t *testing.T, tree *Tree, depth int) int {
		t.Helper()
		for _, l := range tree.Leaves() {
			if l.Depth == depth {
				return l.Counter
			}
		}
		t.Fatalf("no leaf at depth %d", depth)
		return 0
	}
	for _, c := range []struct {
		name    string
		corrupt func(*testing.T, *Tree)
		want    string
	}{
		{"value above T", func(t *testing.T, tree *Tree) {
			tree.value[leafAt(t, tree, 2)] = cfg.RefreshThreshold + 1
		}, "exceeds T"},
		{"removed leaf", func(t *testing.T, tree *Tree) {
			tree.state[leafAt(t, tree, 2)] = slotAbsent
		}, "uncovered"},
		{"extra leaf", func(t *testing.T, tree *Tree) {
			// Split a leaf by hand without activating a counter.
			i := leafAt(t, tree, 2)
			tree.state[i] = slotInternal
			tree.state[2*i+1], tree.state[2*i+2] = slotLeaf, slotLeaf
			tree.order = append(tree.order, int32(i))
			tree.maxUsed = max(tree.maxUsed, 2*i+3)
		}, "counters active"},
		{"threshold index past the ladder", func(t *testing.T, tree *Tree) {
			tree.thIdx[leafAt(t, tree, 2)] = uint8(cfg.MaxLevels)
		}, "out of ladder"},
		{"internal node at depth L-1", func(t *testing.T, tree *Tree) {
			tree.state[leafAt(t, tree, top)] = slotInternal
		}, "past L-1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			tree := grown(t)
			c.corrupt(t, tree)
			err := tree.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("CheckInvariants = %v, want an error containing %q", err, c.want)
			}
		})
	}
}
