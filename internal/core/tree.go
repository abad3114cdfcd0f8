package core

import (
	"fmt"
	"math/bits"
)

// Tree is one CAT instance, stored as a contiguous implicit binary heap.
// Node i's children live at 2i+1 and 2i+2, so a lookup never chases a
// pointer — it walks a byte array of node states, choosing the child from
// the row's address bits (every node covers a power-of-two-aligned row
// block, so the branch direction at depth d is bit rowBits-1-d of the row
// index). Per-node fields are split into structure-of-arrays slabs
// (state, value, threshold index, weight) so the walk touches one dense
// byte per level and the weight-aging pass is a straight byte scan.
//
// The paper's hardware stores the same tree as pointer-linked SRAM rows
// (Fig. 5). The heap layout makes identical decisions: Access return
// values, statistics, counter occupancy and DRCAT reconfiguration choices
// all match the pointer form. The pointer tree scans its intermediate-node
// array in allocation order when choosing the cold sibling pair to merge,
// and recycles the merged row in place for the hot split; Tree mirrors
// that discipline with a small order slice (allocation slot -> heap index)
// so both always merge the same node. A pointer-linked reference
// implementation in the package tests locks the equivalence (random
// traces, reconfiguration storms), and the experiment goldens lock it
// transitively.
//
// The price of the implicit layout is capacity for the worst-case shape:
// the slabs hold 2^L - 1 slots (L = MaxLevels) regardless of how many
// counters are active — ~14 KB per bank at the paper's L = 11 — in
// exchange for a hot path bound by one L1 line per level instead of one
// dependent load per pointer hop. Tree is not safe for concurrent use; the
// simulator drives one tree per bank from a single goroutine.
type Tree struct {
	cfg       Config
	ladder    []uint32
	lambda    int
	weightCap uint8
	rowBits   int // log2(Rows)

	// SoA slabs indexed by heap position.
	state  []uint8 // slotAbsent, slotInternal or slotLeaf
	value  []uint32
	thIdx  []uint8
	weight []uint8

	// order mirrors the pointer layout's intermediate-node array:
	// order[k] is the heap index of the k-th allocated internal node, with
	// merged slots recycled in place — the scan order of DRCAT's
	// merge-candidate search.
	order []int32

	nCtrs   int
	full    bool
	maxUsed int // 1 + highest heap index ever populated (bounds slab scans)

	stats Stats
}

const (
	slotAbsent   uint8 = 0
	slotInternal uint8 = 1
	slotLeaf     uint8 = 2
)

// NewTree builds a CAT in its initial (pre-split) shape.
func NewTree(cfg Config) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ladder := cfg.Ladder
	if ladder == nil {
		ladder = NewLadder(cfg.Counters, cfg.MaxLevels, cfg.RefreshThreshold)
	}
	slots := 1<<cfg.MaxLevels - 1
	t := &Tree{
		cfg:       cfg,
		ladder:    ladder,
		lambda:    cfg.preSplit(),
		weightCap: cfg.weightCap(),
		rowBits:   bits.TrailingZeros(uint(cfg.Rows)),
		state:     make([]uint8, slots),
		value:     make([]uint32, slots),
		thIdx:     make([]uint8, slots),
		weight:    make([]uint8, slots),
		order:     make([]int32, 0, cfg.Counters),
	}
	t.rebuild()
	return t, nil
}

// rebuild restores the pre-split uniform tree with zeroed counters.
func (t *Tree) rebuild() {
	for i := 0; i < t.maxUsed; i++ {
		t.state[i] = slotAbsent
		t.value[i] = 0
		t.thIdx[i] = 0
		t.weight[i] = 0
	}
	t.order = t.order[:0]
	t.nCtrs = 0
	t.full = false
	leaves := 1 << (t.lambda - 1)
	t.buildUniform(0, leaves)
	t.maxUsed = 2*leaves - 1
	if t.nCtrs == t.cfg.Counters {
		t.markFull()
	}
}

// Reset restores the tree to its just-constructed state — the uniform
// pre-split shape with zeroed counters and zeroed statistics — without
// allocating. Run contexts use it to reuse trees across repeated runs.
func (t *Tree) Reset() {
	t.rebuild()
	t.stats = Stats{}
}

// buildUniform populates a complete subtree rooted at heap index i with
// the given number of leaves, appending internal nodes to order in
// preorder — the allocation order of the pointer layout.
func (t *Tree) buildUniform(i, leaves int) {
	if leaves == 1 {
		t.state[i] = slotLeaf
		t.thIdx[i] = uint8(t.lambda - 1)
		t.nCtrs++
		return
	}
	t.state[i] = slotInternal
	t.order = append(t.order, int32(i))
	t.buildUniform(2*i+1, leaves/2)
	t.buildUniform(2*i+2, leaves/2)
}

// markFull implements lines 23-25 of Algorithm 1: once every counter is
// active, all split-threshold indices jump to L-1 so T_{l_i} = T.
func (t *Tree) markFull() {
	t.full = true
	top := uint8(t.cfg.MaxLevels - 1)
	for i := 0; i < t.maxUsed; i++ {
		if t.state[i] == slotLeaf {
			t.thIdx[i] = top
		}
	}
}

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// Ladder returns the split-threshold ladder in use.
func (t *Tree) Ladder() []uint32 { return t.ladder }

// Stats returns a copy of the accumulated statistics.
func (t *Tree) Stats() Stats { return t.stats }

// ActiveCounters returns the number of activated counters.
func (t *Tree) ActiveCounters() int { return t.nCtrs }

// Full reports whether every counter has been activated.
func (t *Tree) Full() bool { return t.full }

// locate walks the state slab from the root to the leaf covering row. The
// child at depth d is selected by row bit rowBits-1-d, so the walk is a
// handful of dense byte loads with no pointer dependencies.
func (t *Tree) locate(row int) (idx, depth int) {
	i := 0
	d := 0
	shift := t.rowBits - 1
	st := t.state
	for st[i] == slotInternal {
		i = 2*i + 1 + (row>>shift)&1
		shift--
		d++
	}
	return i, d
}

// sramCost models the sequential SRAM accesses for a lookup that ended at
// the given leaf depth. With the top λ-1 intermediate levels replaced by
// direct indexing (paper §IV-C), a lookup reads one intermediate node at
// level λ-1, one node per additional level, and finally the counter: for a
// leaf at depth L-1 that is (L-1) - (λ-1) + 2 = L - λ + 2 accesses, matching
// the paper's "from 2 to L - log(M/4)" for λ = log2(M).
func (t *Tree) sramCost(leafDepth int) int {
	c := leafDepth - (t.lambda - 1) + 2
	if c < 2 {
		c = 2
	}
	return c
}

// Access records one activation of row. If the access drives a counter to
// the refresh threshold, Access returns the inclusive row range to refresh
// — the counter's range widened by one row on each side, clamped to the
// bank (paper: "refresh all existing rows between Li-1 and Ui+1") — and
// refresh = true.
func (t *Tree) Access(row int) (refLo, refHi int, refresh bool) {
	if row < 0 || row >= t.cfg.Rows {
		panic(fmt.Sprintf("core: row %d out of range [0,%d)", row, t.cfg.Rows))
	}
	t.stats.Accesses++
	i, depth := t.locate(row)
	t.stats.SRAMAccesses += int64(t.sramCost(depth))
	if depth > t.stats.MaxDepth {
		t.stats.MaxDepth = depth
	}

	// Counter Module (Algorithm 1 lines 4-12), with the trigger taken on
	// the access that reaches the threshold rather than the one after it
	// (an off-by-one in the paper's pseudocode that would let a row reach
	// T+1 activations before its victims refresh).
	if t.value[i] < t.ladder[t.thIdx[i]] {
		t.value[i]++
	}
	for t.value[i] >= t.ladder[t.thIdx[i]] {
		if int(t.thIdx[i]) < t.cfg.MaxLevels-1 {
			t.split(i, depth)
			if t.state[i] == slotInternal {
				// Descend into the half still covering row; with equal
				// consecutive ladder rungs it may split again immediately.
				i = 2*i + 1 + (row>>(t.rowBits-1-depth))&1
				depth++
			}
			continue
		}
		// Refresh trigger. The leaf covers the power-of-two-aligned block
		// of Rows>>depth rows containing row.
		t.value[i] = 0
		t.stats.RefreshEvents++
		size := t.cfg.Rows >> depth
		lo := row &^ (size - 1)
		hi := lo + size - 1
		refLo, refHi = lo-1, hi+1
		if refLo < 0 {
			refLo = 0
		}
		if refHi > t.cfg.Rows-1 {
			refHi = t.cfg.Rows - 1
		}
		t.stats.RowsRefreshed += int64(refHi - refLo + 1)
		if t.cfg.Policy == DRCAT {
			t.noteRefresh(i)
		}
		return refLo, refHi, true
	}
	return 0, 0, false
}

// split activates a new counter by turning leaf i at the given depth into
// an internal node with two cloned leaf children (RCM, Algorithm 1 lines
// 15-22).
func (t *Tree) split(i, depth int) {
	l, r := 2*i+1, 2*i+2
	if t.nCtrs >= t.cfg.Counters || t.cfg.Rows>>depth == 1 || r >= len(t.state) {
		// No counter available or the range is a single row: saturate this
		// counter's threshold at T so it can only trigger refreshes. (The
		// bounds case is unreachable — every leaf keeps thIdx >= depth, so
		// a splittable leaf sits above depth L-1 — but guards the slabs.)
		t.thIdx[i] = uint8(t.cfg.MaxLevels - 1)
		return
	}
	t.nCtrs++
	t.stats.Splits++
	th := t.thIdx[i] + 1 // l_i++ for both halves (lines 21-22)
	t.state[i] = slotInternal
	t.state[l], t.state[r] = slotLeaf, slotLeaf
	t.value[l], t.value[r] = t.value[i], t.value[i]
	t.thIdx[l], t.thIdx[r] = th, th
	// Children inherit the parent's weight so a freshly split hot region
	// is not immediately eligible for merging (DRCAT; zero under PRCAT).
	t.weight[l], t.weight[r] = t.weight[i], t.weight[i]
	t.order = append(t.order, int32(i))
	if r+1 > t.maxUsed {
		t.maxUsed = r + 1
	}
	if t.nCtrs == t.cfg.Counters {
		t.markFull()
	}
}

// noteRefresh performs DRCAT's weight bookkeeping for the hot leaf and,
// when its weight saturates, attempts one merge+split reconfiguration
// (paper §V-B, Fig. 7). When a counter reaches the refresh threshold its
// weight is incremented (saturating) and all other weights are
// decremented (floored at zero), so weights age out unless a region keeps
// triggering refreshes. The aging pass is a dense scan over the weight
// slab.
func (t *Tree) noteRefresh(hot int) {
	st, w := t.state, t.weight
	wHot := w[hot]
	for j := 0; j < t.maxUsed; j++ {
		if st[j] == slotLeaf && w[j] > 0 {
			w[j]--
		}
	}
	w[hot] = wHot // the hot counter is exempt from aging
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

// reconfigure merges the coldest sibling pair and splits the hot counter
// in place. The candidate scan follows order — the pointer tree's
// intermediate-node allocation order — so both implementations always
// pick the same pair; the merged node's order slot is recycled for the
// new split node, exactly like the pointer tree reuses the SRAM row.
func (t *Tree) reconfigure(hot int) bool {
	if len(t.order) < 2 {
		return false // degenerate tree: nothing to merge without emptying it
	}
	hotDepth := bits.Len(uint(hot+1)) - 1
	if hotDepth >= t.cfg.MaxLevels-1 {
		return false // splitting would exceed the L-level cap
	}

	// Step 1: find the first (allocation-order) internal node whose
	// children are two cold leaves, neither of them the hot counter.
	cand, candSlot := -1, -1
	for k, oi := range t.order {
		j := int(oi)
		l, r := 2*j+1, 2*j+2
		if t.state[l] != slotLeaf || t.state[r] != slotLeaf {
			continue
		}
		if t.weight[l] == 0 && t.weight[r] == 0 && l != hot && r != hot {
			cand, candSlot = j, k
			break
		}
	}
	if cand <= 0 {
		// No candidate, or the candidate is the root (merging the root
		// would collapse the tree to a single leaf mid-surgery).
		return false
	}

	// Merge: promote the right child (the paper's Fig. 7 promotes C5),
	// keeping the larger value so the merged counter still upper-bounds
	// every row in the doubled range.
	l, r := 2*cand+1, 2*cand+2
	v := t.value[r]
	if t.value[l] > v {
		v = t.value[l]
	}
	t.state[cand] = slotLeaf
	t.value[cand] = v
	t.thIdx[cand] = t.thIdx[r]
	t.weight[cand] = t.weight[r] // zero: both children were cold
	t.state[l], t.state[r] = slotAbsent, slotAbsent
	t.nCtrs--

	// Step 2: split the hot counter in place, both halves cloning its
	// value (the activation upper bound holds for both).
	hl, hr := 2*hot+1, 2*hot+2
	t.state[hot] = slotInternal
	t.state[hl], t.state[hr] = slotLeaf, slotLeaf
	t.value[hl], t.value[hr] = t.value[hot], t.value[hot]
	t.thIdx[hl], t.thIdx[hr] = t.thIdx[hot], t.thIdx[hot]
	// Step 3: the fresh pair starts at weight 1 so it stays split for a
	// while without being immediately split again.
	t.weight[hl], t.weight[hr] = 1, 1
	t.order[candSlot] = int32(hot)
	t.nCtrs++
	if hr+1 > t.maxUsed {
		t.maxUsed = hr + 1
	}
	return true
}

// OnIntervalBoundary informs the tree that an auto-refresh interval
// elapsed. PRCAT rebuilds the whole tree; DRCAT clears counter values but
// keeps the learned structure and weights (§V).
func (t *Tree) OnIntervalBoundary() {
	if t.cfg.Policy == PRCAT {
		t.rebuild()
		t.stats.Rebuilds++
		return
	}
	for i := 0; i < t.maxUsed; i++ {
		if t.state[i] == slotLeaf {
			t.value[i] = 0
		}
	}
}
