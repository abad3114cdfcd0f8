package engine

// Schedulers pick the next core to advance: the runnable core with the
// smallest local clock, ties broken toward the lowest core index — the
// causal order the historical linear scan in sim.Run established (bank and
// channel contention stay ordered across cores). The min-heap makes that
// pick O(log cores) per request instead of O(cores), which is what lets
// 64–256-core scenario sweeps scale; the linear scan survives as the
// reference implementation that the equivalence test and the scheduler
// benchmarks run the heap against.

// A scheduler tracks the clocks of runnable cores. All cores start
// runnable at clock 0.
type scheduler interface {
	// pick returns the runnable core with the smallest (clock, index)
	// key, or -1 when none remain.
	pick() int
	// update records that core i's clock advanced to now.
	update(i int, now int64)
	// remove retires core i (its request budget is exhausted).
	remove(i int)
	// bound returns a lower bound on the (clock, index) key of every
	// runnable core OTHER than the just-picked core i. The batch-advance
	// loop keeps draining core i while its key stays strictly below the
	// bound — the exact condition under which pick would select i again —
	// so any valid lower bound preserves the causal order (a conservative
	// bound only ends a run early). Called once per pick, not per request.
	bound(i int) (clock int64, idx int32)
}

// heapScheduler is a binary min-heap over core indices keyed by
// (clock, index). pos tracks each core's heap slot so update/remove work
// on arbitrary cores without a search; no operation allocates.
type heapScheduler struct {
	now  []int64 // core index -> clock
	heap []int32 // heap slot -> core index
	pos  []int32 // core index -> heap slot (-1 once removed)
}

func newHeapScheduler(n int) *heapScheduler {
	h := &heapScheduler{
		now:  make([]int64, n),
		heap: make([]int32, n),
		pos:  make([]int32, n),
	}
	// All clocks are 0, so slot order = index order already satisfies the
	// heap property under the (clock, index) key.
	for i := range h.heap {
		h.heap[i] = int32(i)
		h.pos[i] = int32(i)
	}
	return h
}

// reset re-arms the heap for a new run over the same core count without
// allocating: remove only truncates the heap slice, so its capacity still
// holds every core, and the all-zero clock state satisfies the heap
// property in index order exactly as the constructor left it.
func (h *heapScheduler) reset() {
	h.heap = h.heap[:len(h.now)]
	for i := range h.heap {
		h.now[i] = 0
		h.heap[i] = int32(i)
		h.pos[i] = int32(i)
	}
}

// less orders core a before core b under the (clock, index) key.
func (h *heapScheduler) less(a, b int32) bool {
	return h.now[a] < h.now[b] || (h.now[a] == h.now[b] && a < b)
}

func (h *heapScheduler) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = int32(i)
	h.pos[h.heap[j]] = int32(j)
}

func (h *heapScheduler) siftUp(slot int) {
	for slot > 0 {
		parent := (slot - 1) / 2
		if !h.less(h.heap[slot], h.heap[parent]) {
			return
		}
		h.swap(slot, parent)
		slot = parent
	}
}

func (h *heapScheduler) siftDown(slot int) {
	n := len(h.heap)
	for {
		min, l, r := slot, 2*slot+1, 2*slot+2
		if l < n && h.less(h.heap[l], h.heap[min]) {
			min = l
		}
		if r < n && h.less(h.heap[r], h.heap[min]) {
			min = r
		}
		if min == slot {
			return
		}
		h.swap(slot, min)
		slot = min
	}
}

func (h *heapScheduler) pick() int {
	if len(h.heap) == 0 {
		return -1
	}
	return int(h.heap[0])
}

// bound returns the exact second-smallest key: in a binary min-heap it is
// the smaller of the root's children.
func (h *heapScheduler) bound(int) (int64, int32) {
	switch {
	case len(h.heap) < 2:
		return int64(1)<<62 - 1, int32(1) << 30
	case len(h.heap) == 2 || h.less(h.heap[1], h.heap[2]):
		return h.now[h.heap[1]], h.heap[1]
	default:
		return h.now[h.heap[2]], h.heap[2]
	}
}

func (h *heapScheduler) update(i int, now int64) {
	h.now[i] = now
	slot := int(h.pos[i])
	h.siftDown(slot)
	h.siftUp(slot)
}

func (h *heapScheduler) remove(i int) {
	slot := int(h.pos[i])
	last := len(h.heap) - 1
	h.swap(slot, last)
	h.heap = h.heap[:last]
	h.pos[i] = -1
	if slot < last {
		h.siftDown(slot)
		h.siftUp(slot)
	}
}

// linearScheduler is the pre-refactor O(cores) scan, byte-equivalent to
// the loop sim.Run carried inline: smallest clock wins, first index on
// ties (strict < while scanning in index order).
type linearScheduler struct {
	now   []int64
	alive []bool
}

func newLinearScheduler(n int) *linearScheduler {
	l := &linearScheduler{now: make([]int64, n), alive: make([]bool, n)}
	for i := range l.alive {
		l.alive[i] = true
	}
	return l
}

// reset re-arms the scan for a new run over the same core count.
func (l *linearScheduler) reset() {
	for i := range l.alive {
		l.now[i] = 0
		l.alive[i] = true
	}
}

func (l *linearScheduler) pick() int {
	best := -1
	for i, alive := range l.alive {
		if !alive {
			continue
		}
		if best < 0 || l.now[i] < l.now[best] {
			best = i
		}
	}
	return best
}

func (l *linearScheduler) update(i int, now int64) { l.now[i] = now }

func (l *linearScheduler) remove(i int) { l.alive[i] = false }

// bound scans for the best key excluding core i (reference implementation;
// the linear scheduler exists for equivalence tests, not speed).
func (l *linearScheduler) bound(i int) (int64, int32) {
	best := -1
	for j, alive := range l.alive {
		if !alive || j == i {
			continue
		}
		if best < 0 || l.now[j] < l.now[best] {
			best = j
		}
	}
	if best < 0 {
		return int64(1)<<62 - 1, int32(1) << 30
	}
	return l.now[best], int32(best)
}

// tournamentScheduler is a loser tree (tournament tree) over a fixed
// power-of-two leaf array, with (clock, index) packed into one int64 so
// every comparison is a single integer compare. Replaying the winner's
// path costs exactly log2(cores) compares with sequential array accesses
// and no position bookkeeping, which makes it ~2x cheaper per request
// than the binary heap's sift (two compares plus a three-way swap per
// level) while selecting the exact same (clock, index) minimum. It is the
// default scheduler; the heap and the linear scan remain as references.
//
// Packing: key = clock<<idxBits | index. Index bits are log2(leaves), so
// with the 4096-core cap a clock may grow to 2^51 CPU cycles (weeks of
// simulated time at DDR rates) before overflow; update panics loudly
// rather than silently misordering if a run ever gets there.
type tournamentScheduler struct {
	p       int     // leaves (next power of two >= cores)
	n       int     // live cores (leaves n..p-1 are padding)
	idxBits uint    // log2(p)
	key     []int64 // leaf keys; retired and padding leaves hold infKey
	loser   []int64 // loser[1..p-1]: packed loser of each internal match
	winner  int64   // packed overall winner
}

const infKey = int64(^uint64(0) >> 1) // math.MaxInt64

// maxTournamentCores bounds the packed index width. RunInPlace falls back
// to the heap scheduler above it.
const maxTournamentCores = 1 << 12

func newTournamentScheduler(n int) *tournamentScheduler {
	p := 1
	idxBits := uint(0)
	for p < n {
		p <<= 1
		idxBits++
	}
	s := &tournamentScheduler{
		p:       p,
		n:       n,
		idxBits: idxBits,
		key:     make([]int64, p),
		loser:   make([]int64, p),
	}
	s.reset()
	return s
}

// reset replays the constructor's initial tournament over the existing
// leaf and loser arrays, re-arming the tree for a new run.
func (s *tournamentScheduler) reset() {
	for i := range s.key {
		if i < s.n {
			s.key[i] = int64(i) // clock 0, packed
		} else {
			s.key[i] = infKey
		}
	}
	s.winner = s.play(1)
}

// play runs the initial tournament below node j, storing losers and
// returning the winner.
func (s *tournamentScheduler) play(j int) int64 {
	if j >= s.p {
		return s.key[j-s.p]
	}
	l, r := s.play(2*j), s.play(2*j+1)
	if l <= r {
		s.loser[j] = r
		return l
	}
	s.loser[j] = l
	return r
}

func (s *tournamentScheduler) pick() int {
	if s.winner == infKey {
		return -1
	}
	return int(s.winner & (int64(s.p) - 1))
}

// replay pushes leaf i's new key up its path: at each match the smaller
// key advances and the larger stays as the loser. Valid whenever i is the
// current winner, which is the engine's only calling pattern (update and
// remove always follow pick of the same core).
func (s *tournamentScheduler) replay(i int, packed int64) {
	cur := packed
	for j := (s.p + i) >> 1; j >= 1; j >>= 1 {
		// Branchless match: which key advances is data-dependent and
		// unpredictable, so min/max (conditional moves) beat a swap branch.
		l := s.loser[j]
		s.loser[j] = max(l, cur)
		cur = min(l, cur)
	}
	s.winner = cur
}

func (s *tournamentScheduler) update(i int, now int64) {
	if now >= infKey>>s.idxBits {
		panic("engine: tournament scheduler clock overflow (run too long for packed keys)")
	}
	packed := now<<s.idxBits | int64(i)
	s.key[i] = packed
	s.replay(i, packed)
}

func (s *tournamentScheduler) remove(i int) {
	s.key[i] = infKey
	s.replay(i, infKey)
}

// bound returns the exact best key among the other runnable cores: the
// minimum of the losers along core i's path (everyone i beat on the way
// to the root).
func (s *tournamentScheduler) bound(i int) (int64, int32) {
	b := infKey
	for j := (s.p + i) >> 1; j >= 1; j >>= 1 {
		b = min(b, s.loser[j])
	}
	if b == infKey {
		return int64(1)<<62 - 1, int32(1) << 30
	}
	return b >> s.idxBits, int32(b & (int64(s.p) - 1))
}
