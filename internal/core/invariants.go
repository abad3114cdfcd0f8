package core

import "fmt"

// Leaf describes one active counter and the row range it governs, as
// recovered by walking the tree. Diagnostics, tests, and the examples use
// it to show tree shapes; the hot path never materialises it.
type Leaf struct {
	Counter int    // heap slot of the counter
	Lo, Hi  int    // inclusive row range
	Depth   int    // tree level of the leaf
	Value   uint32 // current counter value
	Weight  uint8  // DRCAT weight register
}

// Leaves returns the active counters in row order.
func (t *Tree) Leaves() []Leaf {
	out := make([]Leaf, 0, t.nCtrs)
	t.walk(func(i, lo, hi, depth int) {
		if t.state[i] == slotLeaf {
			out = append(out, Leaf{Counter: i, Lo: lo, Hi: hi, Depth: depth,
				Value: t.value[i], Weight: t.weight[i]})
		}
	})
	return out
}

// walk visits, in preorder (so leaves come in row order), every slot
// reachable from the root through internal nodes, with the row block
// [lo, hi] it covers and its depth. It never indexes past the slabs.
func (t *Tree) walk(visit func(i, lo, hi, depth int)) {
	var rec func(i, lo, hi, depth int)
	rec = func(i, lo, hi, depth int) {
		visit(i, lo, hi, depth)
		if t.state[i] != slotInternal || 2*i+2 >= len(t.state) {
			return
		}
		mid := lo + (hi-lo)/2
		rec(2*i+1, lo, mid, depth+1)
		rec(2*i+2, mid+1, hi, depth+1)
	}
	rec(0, 0, t.cfg.Rows-1, 0)
}

// CheckInvariants verifies the structural soundness of the tree:
//
//  1. the leaves reachable from the root partition [0, Rows): every
//     reachable slot is a leaf or an internal node, so no row block is
//     left uncovered;
//  2. the leaf count equals the active-counter count, and every populated
//     slot is reachable and below the high-water mark rebuild clears to;
//  3. no internal node sits at depth L-1 or deeper (its children would lie
//     past the tree's L levels);
//  4. threshold indices are within the ladder, and no counter value
//     exceeds the refresh threshold T; and
//  5. order lists every internal node exactly once.
//
// It returns the first violation found, or nil. Tests call it after every
// mutation batch; it is deliberately exhaustive rather than fast.
func (t *Tree) CheckInvariants() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("core: invariant violated: "+format, args...)
	}
	top := t.cfg.MaxLevels - 1
	var err error
	leaves, internal := 0, 0
	t.walk(func(i, lo, hi, depth int) {
		if err != nil {
			return
		}
		switch t.state[i] {
		case slotLeaf:
			leaves++
			if int(t.thIdx[i]) > top {
				err = fail("leaf %d threshold index %d out of ladder", i, t.thIdx[i])
			} else if t.value[i] > t.cfg.RefreshThreshold {
				err = fail("leaf %d value %d exceeds T=%d", i, t.value[i], t.cfg.RefreshThreshold)
			}
		case slotInternal:
			internal++
			if depth >= top {
				err = fail("internal node %d at depth %d, past L-1=%d", i, depth, top)
			}
		default:
			err = fail("rows [%d,%d] uncovered: slot %d is empty", lo, hi, i)
		}
	})
	if err != nil {
		return err
	}
	if leaves != t.nCtrs {
		return fail("%d leaves reachable, %d counters active", leaves, t.nCtrs)
	}
	populated := 0
	for i, st := range t.state {
		if st == slotAbsent {
			continue
		}
		if i >= t.maxUsed {
			return fail("slot %d populated past the high-water mark %d", i, t.maxUsed)
		}
		populated++
	}
	if populated != leaves+internal {
		return fail("%d populated slots, %d reachable", populated, leaves+internal)
	}
	if len(t.order) != internal {
		return fail("order lists %d nodes, %d internal", len(t.order), internal)
	}
	seen := make([]bool, len(t.state))
	for k, i := range t.order {
		if t.state[i] != slotInternal || seen[i] {
			return fail("order[%d] = slot %d is not a distinct internal node", k, i)
		}
		seen[i] = true
	}
	return nil
}
