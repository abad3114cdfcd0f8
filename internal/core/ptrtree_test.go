package core

import (
	"fmt"
	"strings"
	"testing"
)

// inode is one row of the intermediate-node array I (paper Fig. 5b): two
// successor pointers plus flags telling whether each successor is another
// intermediate node (the paper's flag polarity) or a leaf counter.
type inode struct {
	left, right         int32
	leftNode, rightNode bool
}

// counterState is one row of the counter array C plus the per-counter level
// register l_i of Algorithm 1. depth is the true tree depth (used for range
// recovery and the L-level cap); thIdx indexes the split-threshold ladder
// and is forced to L-1 for every counter once the tree is fully built.
type counterState struct {
	value uint32
	depth uint8
	thIdx uint8
}

// ptrTree is the pointer-linked CAT: a direct mirror of the paper's SRAM
// layout (Fig. 5) — an array I of intermediate nodes carrying left/right
// pointers plus leaf flags, an array C of counters, and an array W of
// weight registers. Row-range boundaries are not stored; they are
// recovered during pointer-chasing traversal. It is the differential
// reference for the production Tree: both must agree on every Access,
// statistic and DRCAT reconfiguration decision (diff_test.go).
type ptrTree struct {
	cfg       Config
	ladder    []uint32
	lambda    int
	weightCap uint8

	inodes   []inode
	counters []counterState
	weights  []uint8
	nInodes  int
	nCtrs    int
	full     bool

	stats Stats
}

// newPtrTree builds a CAT in its initial (pre-split) shape.
func newPtrTree(cfg Config) (*ptrTree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ladder := cfg.Ladder
	if ladder == nil {
		ladder = NewLadder(cfg.Counters, cfg.MaxLevels, cfg.RefreshThreshold)
	}
	t := &ptrTree{
		cfg:       cfg,
		ladder:    ladder,
		lambda:    cfg.preSplit(),
		weightCap: cfg.weightCap(),
		inodes:    make([]inode, cfg.Counters-1+1), // M-1 max; +1 avoids a zero-length array for M=1
		counters:  make([]counterState, cfg.Counters),
		weights:   make([]uint8, cfg.Counters),
	}
	t.rebuild()
	return t, nil
}

// rebuild restores the pre-split uniform tree with zeroed counters.
func (t *ptrTree) rebuild() {
	t.nInodes = 0
	t.nCtrs = 0
	t.full = false
	for i := range t.weights {
		t.weights[i] = 0
	}
	leaves := 1 << (t.lambda - 1)
	t.buildUniform(leaves)
	if t.nCtrs == t.cfg.Counters {
		t.markFull()
	}
}

// buildUniform allocates a complete subtree with the given number of leaves
// and returns a reference to it (index plus is-node flag).
func (t *ptrTree) buildUniform(leaves int) (idx int32, isNode bool) {
	if leaves == 1 {
		ci := int32(t.nCtrs)
		t.nCtrs++
		t.counters[ci] = counterState{
			value: 0,
			depth: uint8(t.lambda - 1),
			thIdx: uint8(t.lambda - 1),
		}
		return ci, false
	}
	ni := int32(t.nInodes)
	t.nInodes++
	l, ln := t.buildUniform(leaves / 2)
	r, rn := t.buildUniform(leaves / 2)
	t.inodes[ni] = inode{left: l, right: r, leftNode: ln, rightNode: rn}
	return ni, true
}

// markFull implements lines 23-25 of Algorithm 1: once every counter is
// active, all split-threshold indices jump to L-1 so T_{l_i} = T.
func (t *ptrTree) markFull() {
	t.full = true
	for i := 0; i < t.nCtrs; i++ {
		t.counters[i].thIdx = uint8(t.cfg.MaxLevels - 1)
	}
}

func (t *ptrTree) Stats() Stats        { return t.stats }
func (t *ptrTree) ActiveCounters() int { return t.nCtrs }
func (t *ptrTree) Full() bool          { return t.full }

// locate descends from the root to the leaf covering row, returning the
// counter index, the covered range [lo, hi], the leaf depth, and the parent
// linkage needed by a split (parent == -1 when the leaf is the root).
func (t *ptrTree) locate(row int) (ci int32, lo, hi, depth int, parent int32, rightSide bool) {
	lo, hi = 0, t.cfg.Rows-1
	parent = -1
	if t.nInodes == 0 {
		return 0, lo, hi, 0, parent, false
	}
	var ref int32 // current intermediate node
	for d := 0; ; d++ {
		n := &t.inodes[ref]
		mid := lo + (hi-lo)/2
		if row <= mid {
			hi = mid
			if n.leftNode {
				parent = ref
				ref = n.left
				continue
			}
			return n.left, lo, hi, d + 1, ref, false
		}
		lo = mid + 1
		if n.rightNode {
			parent = ref
			ref = n.right
			continue
		}
		return n.right, lo, hi, d + 1, ref, true
	}
}

// sramCost is Tree.sramCost's accounting.
func (t *ptrTree) sramCost(leafDepth int) int {
	c := leafDepth - (t.lambda - 1) + 2
	if c < 2 {
		c = 2
	}
	return c
}

// Access is Tree.Access over the pointer layout.
func (t *ptrTree) Access(row int) (refLo, refHi int, refresh bool) {
	if row < 0 || row >= t.cfg.Rows {
		panic(fmt.Sprintf("core: row %d out of range [0,%d)", row, t.cfg.Rows))
	}
	t.stats.Accesses++
	ci, lo, hi, depth, parent, rightSide := t.locate(row)
	t.stats.SRAMAccesses += int64(t.sramCost(depth))
	if depth > t.stats.MaxDepth {
		t.stats.MaxDepth = depth
	}

	c := &t.counters[ci]
	if c.value < t.ladder[c.thIdx] {
		c.value++
	}
	for c.value >= t.ladder[c.thIdx] {
		if int(c.thIdx) < t.cfg.MaxLevels-1 {
			// Reconfiguration Counter Module: split (lines 14-22). Splits
			// are rare, so re-walking the tree afterwards keeps the logic
			// simple; when the ladder has equal consecutive rungs the new
			// leaf may split again immediately, hence the loop.
			t.split(ci, lo, hi, depth, parent, rightSide)
			ci, lo, hi, depth, parent, rightSide = t.locate(row)
			c = &t.counters[ci]
			continue
		}
		// Refresh trigger (lines 10-12).
		c.value = 0
		t.stats.RefreshEvents++
		refLo, refHi = lo-1, hi+1
		if refLo < 0 {
			refLo = 0
		}
		if refHi > t.cfg.Rows-1 {
			refHi = t.cfg.Rows - 1
		}
		t.stats.RowsRefreshed += int64(refHi - refLo + 1)
		if t.cfg.Policy == DRCAT {
			t.noteRefresh(ci)
		}
		return refLo, refHi, true
	}
	return 0, 0, false
}

// split activates a new counter as a clone of counter ci (RCM, Algorithm 1
// lines 15-22).
func (t *ptrTree) split(ci int32, lo, hi, depth int, parent int32, rightSide bool) {
	if t.nCtrs >= t.cfg.Counters || lo == hi {
		// No counter available or the range is a single row: saturate this
		// counter's threshold at T so it can only trigger refreshes.
		t.counters[ci].thIdx = uint8(t.cfg.MaxLevels - 1)
		return
	}
	nc := int32(t.nCtrs)
	t.nCtrs++
	ni := int32(t.nInodes)
	t.nInodes++

	t.stats.Splits++
	old := &t.counters[ci]
	newDepth := depth + 1
	th := old.thIdx + 1 // l_i++ for both halves (line 21-22)
	t.counters[nc] = counterState{value: old.value, depth: uint8(newDepth), thIdx: th}
	old.depth = uint8(newDepth)
	old.thIdx = th

	// The old counter keeps the lower half [lo, mid]; the new counter takes
	// [mid+1, hi] (Algorithm 1 lines 17-20).
	t.inodes[ni] = inode{left: ci, right: nc, leftNode: false, rightNode: false}
	if parent >= 0 {
		p := &t.inodes[parent]
		if rightSide {
			p.right, p.rightNode = ni, true
		} else {
			p.left, p.leftNode = ni, true
		}
	}
	if t.cfg.Policy == DRCAT {
		// Children inherit the parent's weight so a freshly split hot
		// region is not immediately eligible for merging.
		t.weights[nc] = t.weights[ci]
	}
	if t.nCtrs == t.cfg.Counters {
		t.markFull()
	}
}

// OnIntervalBoundary informs the tree that an auto-refresh interval elapsed
// (all rows implicitly refreshed). PRCAT rebuilds the whole tree; DRCAT
// clears counter values but keeps the learned structure and weights (§V).
func (t *ptrTree) OnIntervalBoundary() {
	if t.cfg.Policy == PRCAT {
		t.rebuild()
		t.stats.Rebuilds++
		return
	}
	for i := 0; i < t.nCtrs; i++ {
		t.counters[i].value = 0
	}
}

// DRCAT reconfiguration (paper §V-B, Fig. 7).
//
// Every counter carries a small weight register. When a counter reaches the
// refresh threshold its weight is incremented (saturating) and all other
// weights are decremented (floored at zero), so weights age out unless a
// region keeps triggering refreshes. When a counter saturates its weight,
// the tree is reshaped: an intermediate node whose two children are both
// zero-weight leaf counters is located, the two cold counters are merged
// (one is promoted into the parent's slot, keeping the larger value so the
// per-row activation upper bound is preserved), and the released counter
// and intermediate-node row are reused to split the hot counter in half.

// noteRefresh performs the weight bookkeeping and, when the hot counter's
// weight saturates, attempts one merge+split reconfiguration.
func (t *ptrTree) noteRefresh(hot int32) {
	w := t.weights
	for i := 0; i < t.nCtrs; i++ {
		if int32(i) == hot {
			continue
		}
		if w[i] > 0 {
			w[i]--
		}
	}
	if w[hot] < t.weightCap {
		w[hot]++
	}
	if w[hot] < t.weightCap {
		return
	}
	if t.reconfigure(hot) {
		t.stats.Reconfigs++
	}
}

// reconfigure merges the coldest sibling pair and splits the hot counter,
// reusing the released counter and intermediate-node row. It returns false
// when no reconfiguration is possible (no all-cold sibling pair, the hot
// counter is already at maximum depth, or the tree is trivial).
func (t *ptrTree) reconfigure(hot int32) bool {
	if t.nInodes < 2 {
		return false // degenerate tree: nothing to merge without emptying it
	}
	hotC := &t.counters[hot]
	if int(hotC.depth) >= t.cfg.MaxLevels-1 {
		return false // splitting would exceed the L-level cap
	}

	// Step 1: find an intermediate node whose children are two cold leaves.
	merge := int32(-1)
	for i := 0; i < t.nInodes; i++ {
		n := &t.inodes[i]
		if n.leftNode || n.rightNode {
			continue
		}
		if t.weights[n.left] == 0 && t.weights[n.right] == 0 &&
			n.left != hot && n.right != hot {
			merge = int32(i)
			break
		}
	}
	if merge < 0 || merge == 0 {
		// No candidate, or the candidate is the root (merging the root
		// would collapse the tree to a single leaf mid-surgery).
		return false
	}

	mergeParent, mergeRight, ok := t.findParent(merge, true)
	if !ok {
		return false // unreachable in a consistent tree
	}
	hotParent, hotRight, hok := t.findParent(hot, false)
	if !hok {
		return false // hot is the root leaf; cannot split in place
	}
	if hotParent == merge {
		return false // cannot reuse the row that links the hot counter
	}

	// Perform the merge: promote the right child (the paper's Fig. 7
	// promotes C5, the right child of I5), release the left child, and keep
	// the maximum value so the merged counter still upper-bounds every row
	// in the doubled range.
	m := t.inodes[merge]
	promoted, released := m.right, m.left
	if t.counters[released].value > t.counters[promoted].value {
		t.counters[promoted].value = t.counters[released].value
	}
	t.counters[promoted].depth--
	p := &t.inodes[mergeParent]
	if mergeRight {
		p.right, p.rightNode = promoted, false
	} else {
		p.left, p.leftNode = promoted, false
	}

	// Step 2: reuse the released intermediate-node row and counter to split
	// the hot counter. The released counter becomes a clone of the hot one
	// (same value: the activation upper bound holds for both halves).
	t.counters[released] = counterState{
		value: hotC.value,
		depth: hotC.depth + 1,
		thIdx: hotC.thIdx,
	}
	hotC.depth++
	t.inodes[merge] = inode{left: hot, right: released, leftNode: false, rightNode: false}
	hp := &t.inodes[hotParent]
	if hotRight {
		hp.right, hp.rightNode = merge, true
	} else {
		hp.left, hp.leftNode = merge, true
	}

	// Step 3: start the new pair with weight 1.
	t.weights[hot] = 1
	t.weights[released] = 1
	return true
}

// findParent scans the intermediate-node array for the entry pointing at
// target. isNode selects whether target is an intermediate node or a leaf
// counter. It returns the parent row, which side points at target, and
// whether a parent was found.
func (t *ptrTree) findParent(target int32, isNode bool) (parent int32, right bool, ok bool) {
	for i := 0; i < t.nInodes; i++ {
		n := &t.inodes[i]
		if n.left == target && n.leftNode == isNode {
			return int32(i), false, true
		}
		if n.right == target && n.rightNode == isNode {
			return int32(i), true, true
		}
	}
	return -1, false, false
}

// Leaves returns the active counters in row order.
func (t *ptrTree) Leaves() []Leaf {
	out := make([]Leaf, 0, t.nCtrs)
	t.walk(func(l Leaf) { out = append(out, l) })
	return out
}

// walk visits every leaf in row order.
func (t *ptrTree) walk(visit func(Leaf)) {
	if t.nInodes == 0 {
		visit(Leaf{Counter: 0, Lo: 0, Hi: t.cfg.Rows - 1, Depth: 0,
			Value: t.counters[0].value, Weight: t.weights[0]})
		return
	}
	var rec func(ref int32, isNode bool, lo, hi, depth int)
	rec = func(ref int32, isNode bool, lo, hi, depth int) {
		if !isNode {
			visit(Leaf{Counter: int(ref), Lo: lo, Hi: hi, Depth: depth,
				Value: t.counters[ref].value, Weight: t.weights[ref]})
			return
		}
		n := &t.inodes[ref]
		mid := lo + (hi-lo)/2
		rec(n.left, n.leftNode, lo, mid, depth+1)
		rec(n.right, n.rightNode, mid+1, hi, depth+1)
	}
	rec(0, true, 0, t.cfg.Rows-1, 0)
}

// CheckInvariants verifies the structural soundness of the tree:
//
//  1. the leaves partition [0, Rows) exactly, in order, without overlap;
//  2. every active counter appears as exactly one leaf and every allocated
//     intermediate-node row is reachable exactly once (no cycles, no leaks);
//  3. each leaf's stored depth matches its tree position;
//  4. threshold indices are within the ladder; and
//  5. no counter value exceeds the refresh threshold T.
//
// It returns the first violation found, or nil. Tests call it after every
// mutation batch; it is deliberately exhaustive rather than fast.
func (t *ptrTree) CheckInvariants() error {
	seenCtr := make([]bool, t.nCtrs)
	seenNode := make([]bool, t.nInodes)
	nCtr, nNode := 0, 0
	nextLo := 0
	var firstErr error
	fail := func(format string, args ...any) {
		if firstErr == nil {
			firstErr = fmt.Errorf("core: invariant violated: "+format, args...)
		}
	}

	var rec func(ref int32, isNode bool, lo, hi, depth int)
	rec = func(ref int32, isNode bool, lo, hi, depth int) {
		if firstErr != nil {
			return
		}
		if lo > hi {
			fail("empty range [%d,%d] at depth %d", lo, hi, depth)
			return
		}
		if !isNode {
			if ref < 0 || int(ref) >= t.nCtrs {
				fail("leaf pointer %d outside active counters [0,%d)", ref, t.nCtrs)
				return
			}
			if seenCtr[ref] {
				fail("counter %d reachable twice", ref)
				return
			}
			seenCtr[ref] = true
			nCtr++
			if lo != nextLo {
				fail("leaf %d starts at %d, want %d (gap or overlap)", ref, lo, nextLo)
				return
			}
			nextLo = hi + 1
			c := &t.counters[ref]
			if int(c.depth) != depth {
				fail("counter %d stored depth %d, position depth %d", ref, c.depth, depth)
			}
			if int(c.thIdx) >= t.cfg.MaxLevels {
				fail("counter %d threshold index %d out of ladder", ref, c.thIdx)
			}
			if c.value > t.cfg.RefreshThreshold {
				fail("counter %d value %d exceeds T=%d", ref, c.value, t.cfg.RefreshThreshold)
			}
			return
		}
		if ref < 0 || int(ref) >= t.nInodes {
			fail("node pointer %d outside allocated rows [0,%d)", ref, t.nInodes)
			return
		}
		if seenNode[ref] {
			fail("intermediate node %d reachable twice (cycle)", ref)
			return
		}
		seenNode[ref] = true
		nNode++
		if depth >= t.cfg.MaxLevels {
			fail("node %d at depth %d exceeds L=%d levels", ref, depth, t.cfg.MaxLevels)
			return
		}
		n := &t.inodes[ref]
		mid := lo + (hi-lo)/2
		rec(n.left, n.leftNode, lo, mid, depth+1)
		rec(n.right, n.rightNode, mid+1, hi, depth+1)
	}

	if t.nInodes == 0 {
		if t.nCtrs < 1 {
			return fmt.Errorf("core: invariant violated: tree has no counters")
		}
		if t.counters[0].depth != 0 {
			return fmt.Errorf("core: invariant violated: root leaf depth %d", t.counters[0].depth)
		}
		return nil
	}
	rec(0, true, 0, t.cfg.Rows-1, 0)
	if firstErr != nil {
		return firstErr
	}
	if nextLo != t.cfg.Rows {
		return fmt.Errorf("core: invariant violated: leaves cover up to %d, want %d", nextLo, t.cfg.Rows)
	}
	if nCtr != t.nCtrs {
		return fmt.Errorf("core: invariant violated: %d counters reachable, %d active", nCtr, t.nCtrs)
	}
	if nNode != t.nInodes {
		return fmt.Errorf("core: invariant violated: %d nodes reachable, %d allocated", nNode, t.nInodes)
	}
	return nil
}

// DumpTable renders the SRAM arrays in the layout of the paper's Fig. 5:
// the intermediate-node array I (L-ptr, R-ptr, leaf flags — shown with the
// paper's polarity, where flag 1 marks an intermediate successor), the
// counter array C, and the weight array W. Diagnostics and documentation;
// not on any hot path.
func (t *ptrTree) DumpTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "I (%d rows)          L-ptr  R-ptr  L-node  R-node\n", t.nInodes)
	for i := 0; i < t.nInodes; i++ {
		n := &t.inodes[i]
		fmt.Fprintf(&b, "  I%-3d               %-6s %-6s %d       %d\n",
			i, refName(n.left, n.leftNode), refName(n.right, n.rightNode),
			boolBit(n.leftNode), boolBit(n.rightNode))
	}
	fmt.Fprintf(&b, "C (%d active of %d)   value  depth  T-index  weight\n", t.nCtrs, t.cfg.Counters)
	for i := 0; i < t.nCtrs; i++ {
		c := &t.counters[i]
		fmt.Fprintf(&b, "  C%-3d               %-6d %-6d %-8d %d\n",
			i, c.value, c.depth, c.thIdx, t.weights[i])
	}
	return b.String()
}

func refName(idx int32, isNode bool) string {
	if isNode {
		return fmt.Sprintf("I%d", idx)
	}
	return fmt.Sprintf("C%d", idx)
}

func boolBit(v bool) int {
	if v {
		return 1
	}
	return 0
}

func TestDumpTableShowsFig5Layout(t *testing.T) {
	// Build a small tree and check the dump names every allocated row in
	// the paper's Fig. 5 notation.
	cfg := Config{Rows: 1 << 8, Counters: 8, MaxLevels: 6, RefreshThreshold: 64, PreSplit: 1}
	tree, err := newPtrTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64*4; i++ {
		tree.Access(3)
	}
	dump := tree.DumpTable()
	for _, want := range []string{"I0", "C0", "L-ptr", "R-ptr", "value", "weight"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}
