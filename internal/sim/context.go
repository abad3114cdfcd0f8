package sim

import (
	"sync"

	"catsim/internal/addrmap"
	"catsim/internal/dram"
	"catsim/internal/engine"
	"catsim/internal/memctrl"
	"catsim/internal/mitigation"
	"catsim/internal/workload"
)

// Context is a reusable run context: it owns every piece of per-run state
// a simulation builds — engine scratch memory, the memory controller's
// bank arrays, the mitigation scheme's trackers, the oracle's tables, the
// request-stream generators and their PRNG streams — and resets whatever
// still fits in place instead of rebuilding it, so a sweep that runs many
// same-shaped cells (typically differing only in seed) performs no
// steady-state allocations per run.
//
// Context is the only place a run is assembled: the package-level Run is
// a fresh Context's run. A reused Context returns a byte-identical Result
// to a fresh one for every configuration and every sequence of
// configurations (locked by the context-reuse identity test): each layer
// compares the shape it was built for against the incoming config and
// rebuilds on any mismatch, and scheme reuse additionally goes through
// mitigation.Resettable, whose contract demands observational equivalence
// to a fresh build.
//
// A Result returned by Context.Run ALIASES the context (PerBankActs and
// Epochs share its scratch memory) and is valid only until the context's
// next run; call Result.Clone to retain it. A Context serves one run at a
// time — use one per worker goroutine (internal/runner pools them).
type Context struct {
	seq seqState
	sh  shardState

	label     string
	labelSpec SchemeSpec
	labelT    uint32
	hasLabel  bool
}

// NewContext returns an empty context; the first Run populates it.
func NewContext() *Context { return &Context{} }

// Run executes one simulation, reusing the context's state wherever the
// configuration shape allows.
func (ctx *Context) Run(cfg Config) (Result, error) {
	cfg.fill()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if cfg.sharded() {
		return ctx.runSharded(cfg)
	}
	return ctx.runSequential(cfg)
}

// schemeLabel caches the scheme's formatted figure label across runs of
// the same (spec, threshold) cell.
func (ctx *Context) schemeLabel(cfg *Config) string {
	if !ctx.hasLabel || ctx.labelSpec != cfg.Scheme || ctx.labelT != cfg.Threshold {
		ctx.label = cfg.Scheme.Label(cfg.Threshold)
		ctx.labelSpec, ctx.labelT, ctx.hasLabel = cfg.Scheme, cfg.Threshold, true
	}
	return ctx.label
}

// policyCache memoizes address-mapping policies process-wide: a policy is
// a pure function of (geometry, interleave flag), immutable and
// goroutine-safe after construction (sharded partitions already share one
// instance), so every context — and every cell of a runner grid — reuses
// the same table.
var policyCache sync.Map // policyKey -> addrmap.Policy

type policyKey struct {
	geom        dram.Geometry
	interleaved bool
}

func cachedPolicy(cfg *Config) (addrmap.Policy, error) {
	k := policyKey{cfg.Geometry, cfg.ChannelInterleaved}
	if v, ok := policyCache.Load(k); ok {
		return v.(addrmap.Policy), nil
	}
	p, err := cfg.buildPolicy()
	if err != nil {
		return nil, err
	}
	v, _ := policyCache.LoadOrStore(k, p)
	return v.(addrmap.Policy), nil
}

// sameStreamShape reports whether request streams built for a can be
// rewound in place to serve b: every stream-determining field except the
// seed must match (the seed is what reseed replays). Replay configs never
// share streams — their wrappers are rebuilt each run.
func sameStreamShape(a, b *Config) bool {
	if a.Replay != nil || b.Replay != nil {
		return false
	}
	if a.Geometry != b.Geometry || a.Timing != b.Timing ||
		a.ChannelInterleaved != b.ChannelInterleaved ||
		a.Cores != b.Cores || a.Window != b.Window ||
		a.CPUPerBus != b.CPUPerBus ||
		a.RequestsPerCore != b.RequestsPerCore ||
		a.Workload != b.Workload ||
		a.AttackOnsetFrac != b.AttackOnsetFrac ||
		a.ChannelAffine != b.ChannelAffine {
		return false
	}
	if (a.Attack == nil) != (b.Attack == nil) {
		return false
	}
	if a.Attack != nil && *a.Attack != *b.Attack {
		return false
	}
	if len(a.WorkloadPerCore) != len(b.WorkloadPerCore) {
		return false
	}
	for i := range a.WorkloadPerCore {
		if a.WorkloadPerCore[i] != b.WorkloadPerCore[i] {
			return false
		}
	}
	if (a.OpenLoop == nil) != (b.OpenLoop == nil) {
		return false
	}
	if a.OpenLoop != nil && a.openConfig().String() != b.openConfig().String() {
		return false
	}
	return true
}

// sameSchemeShape reports whether a scheme built for a serves b after a
// ResetRun (same spec, threshold and system dimensions; the run seed is
// re-derived by ResetRun).
func sameSchemeShape(a, b *Config) bool {
	return a.Scheme == b.Scheme && a.Threshold == b.Threshold && a.Geometry == b.Geometry
}

// seqState is the sequential engine's reusable stack.
type seqState struct {
	built bool
	prev  Config

	policy addrmap.Policy
	ctrl   *memctrl.Controller
	scheme mitigation.Scheme
	oracle *mitigation.Oracle

	closed    []closedStream
	slots     []engine.CoreSlot
	openRT    *workload.Runtime
	openSlots []engine.OpenSlot

	scratch engine.Scratch
	ecfg    engine.Config
}

func (ctx *Context) runSequential(cfg Config) (Result, error) {
	s := &ctx.seq
	prev := s.prev
	was := s.built
	// Any failure below leaves the stack half-mutated; drop it so the next
	// run rebuilds from scratch. Re-armed on success.
	s.built = false

	var err error
	if !(was && prev.Geometry == cfg.Geometry && prev.ChannelInterleaved == cfg.ChannelInterleaved) {
		if s.policy, err = cachedPolicy(&cfg); err != nil {
			return Result{}, err
		}
	}
	policy := s.policy

	if was && prev.Geometry == cfg.Geometry && prev.Timing == cfg.Timing {
		s.ctrl.Reset()
	} else if s.ctrl, err = memctrl.New(cfg.Geometry, cfg.Timing); err != nil {
		return Result{}, err
	}
	ctrl := s.ctrl

	banks := cfg.Geometry.TotalBanks()
	reuseScheme := was && sameSchemeShape(&prev, &cfg)
	if reuseScheme {
		r, ok := s.scheme.(mitigation.Resettable)
		reuseScheme = ok && r.ResetRun(cfg.Scheme.runSeed(cfg.Seed))
	}
	if !reuseScheme {
		if s.scheme, err = cfg.Scheme.Build(banks, cfg.Geometry.RowsPerBank, cfg.Threshold, cfg.Seed); err != nil {
			return Result{}, err
		}
	}
	scheme := s.scheme
	cfg.scaleVictimRefresh(ctrl, scheme.Kind())

	// The oracle judges every scheme, probabilistic ones included: for
	// PRA/DSAC the missed-victim accounting quantifies the protection gap
	// that deterministic schemes must show to be zero.
	var oracle *mitigation.Oracle
	if cfg.CheckProtection && scheme.Kind() != mitigation.KindNone {
		if was && s.oracle != nil && prev.Geometry == cfg.Geometry && prev.Threshold == cfg.Threshold {
			s.oracle.Reset()
		} else {
			s.oracle = mitigation.NewOracle(banks, cfg.Geometry.RowsPerBank, cfg.Threshold)
		}
		oracle = s.oracle
	}

	var cohort *workload.Cohort
	switch {
	case was && sameStreamShape(&prev, &cfg):
		for i := range s.closed {
			s.closed[i].reseed(cfg.Seed)
			s.slots[i].CPU.Reset()
		}
		if s.openRT != nil {
			s.openRT.Reset(cfg.Seed)
			cohort = s.openRT.Cohort
		}
	case cfg.Replay != nil:
		// Replay wrappers are cheap views over the immutable container;
		// rebuild them every run rather than teaching them to rewind.
		s.closed, s.openRT = nil, nil
		if s.slots, s.openSlots, cohort, err = cfg.replayStreams(policy); err != nil {
			return Result{}, err
		}
	default:
		if cohort, err = s.buildStreams(&cfg, policy); err != nil {
			return Result{}, err
		}
	}

	s.ecfg = cfg.engineConfig(s.slots, policy, ctrl, scheme, oracle, &s.scratch)
	s.ecfg.Open = s.openSlots
	s.ecfg.OnSample = cfg.OnSample
	if cohort != nil {
		s.ecfg.Attr = cohort
	}
	er, err := engine.RunInPlace(&s.ecfg)
	if err != nil {
		return Result{}, err
	}
	res, err := cfg.deriveResult(er, scheme.Counts(), scheme.Kind(), scheme.CountersPerBank(), ctrl.Stats(),
		ctx.schemeLabel(&cfg))
	if err != nil {
		return Result{}, err
	}
	if oracle != nil {
		res.addOracle(oracle)
	}
	if cohort != nil {
		if oracle != nil {
			res.Tenants = cohort.Stats(oracle)
		} else {
			res.Tenants = cohort.Stats(nil)
		}
	}
	s.prev = cfg
	s.built = true
	return res, nil
}

// buildStreams builds the sequential generated (non-replay) streams
// fresh, keeping the per-layer handles reseed needs, and returns the
// open-loop cohort (nil for pure closed-loop runs).
func (s *seqState) buildStreams(cfg *Config, policy addrmap.Policy) (*workload.Cohort, error) {
	s.closed = s.closed[:0]
	s.slots = s.slots[:0]
	for i := 0; i < cfg.Cores; i++ {
		cs, slot, err := cfg.closedSlot(policy, i)
		if err != nil {
			return nil, err
		}
		s.closed = append(s.closed, cs)
		s.slots = append(s.slots, slot)
	}
	s.openRT = nil
	s.openSlots = nil
	if cfg.OpenLoop == nil {
		return nil, nil
	}
	rt, err := cfg.openConfig().Build(cfg.Geometry, policy, 1/cfg.cpuCycleNS(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	s.openRT = rt
	for i, src := range rt.Sources {
		s.openSlots = append(s.openSlots, engine.OpenSlot{Gen: src, Requests: rt.Counts[i]})
	}
	return rt.Cohort, nil
}

// shardPart is one channel partition's reusable stack.
type shardPart struct {
	channel engine.ChannelRange
	ctrl    *memctrl.Controller
	scheme  mitigation.Scheme
	oracle  *mitigation.Oracle
	closed  []closedStream
	slots   []engine.CoreSlot
	scratch engine.Scratch
}

// shardState is the channel-partitioned engine's reusable state.
type shardState struct {
	built bool
	prev  Config

	policy addrmap.Policy
	parts  []shardPart
	ecfgs  []engine.Config
}

func (ctx *Context) runSharded(cfg Config) (Result, error) {
	sh := &ctx.sh
	prev := sh.prev
	was := sh.built
	sh.built = false

	// Partitions rewind in place when the shape matches and every scheme
	// accepts the reset; a decline mid-loop is harmless, as the whole
	// stack is then rebuilt.
	reuse := was && sameStreamShape(&prev, &cfg) && sameSchemeShape(&prev, &cfg) &&
		prev.CheckProtection == cfg.CheckProtection
	for p := 0; reuse && p < len(sh.parts); p++ {
		part := &sh.parts[p]
		r, ok := part.scheme.(mitigation.Resettable)
		if reuse = ok && r.ResetRun(cfg.Scheme.runSeed(cfg.Seed)); !reuse {
			break
		}
		part.ctrl.Reset()
		if part.oracle != nil {
			part.oracle.Reset()
		}
		for i := range part.closed {
			part.closed[i].reseed(cfg.Seed)
			part.slots[i].CPU.Reset()
		}
	}
	if !reuse {
		var err error
		if sh.policy, err = cachedPolicy(&cfg); err != nil {
			return Result{}, err
		}
		if err = sh.build(&cfg); err != nil {
			return Result{}, err
		}
	}
	// Re-wired every run: interval, epoch, scrambler and the victim-row
	// cost are per-run knobs the shape comparison does not pin.
	sh.ecfgs = sh.ecfgs[:0]
	for p := range sh.parts {
		part := &sh.parts[p]
		cfg.scaleVictimRefresh(part.ctrl, cfg.Scheme.Kind)
		ec := cfg.engineConfig(part.slots, sh.policy, part.ctrl, part.scheme, part.oracle, &part.scratch)
		ec.Channels = &part.channel
		sh.ecfgs = append(sh.ecfgs, ec)
	}

	workers := cfg.Shards
	if workers > len(sh.ecfgs) {
		workers = len(sh.ecfgs)
	}
	er, err := engine.RunSharded(sh.ecfgs, workers)
	if err != nil {
		return Result{}, err
	}
	// Per-partition samples only become the run's samples after the
	// channel-order merge, so the streaming hook fires here — once, with
	// the final merged sequence — rather than live per partition. Callers
	// observe the identical samples in the identical order as a
	// sequential run (locked by TestOnSampleShardedMatchesSequential);
	// only the delivery time differs.
	if cfg.OnSample != nil {
		for _, smp := range er.Samples {
			cfg.OnSample(smp)
		}
	}

	var stats memctrl.Stats
	var counts mitigation.Counts
	for p := range sh.parts {
		stats = stats.Add(sh.parts[p].ctrl.Stats())
		counts = counts.Add(sh.parts[p].scheme.Counts())
	}
	first := sh.parts[0].scheme
	res, err := cfg.deriveResult(er, counts, first.Kind(), first.CountersPerBank(), stats,
		ctx.schemeLabel(&cfg))
	if err != nil {
		return Result{}, err
	}
	for p := range sh.parts {
		if o := sh.parts[p].oracle; o != nil {
			res.addOracle(o)
		}
	}
	sh.prev = cfg
	sh.built = true
	return res, nil
}

// build constructs the per-channel partition stacks fresh: one
// controller + scheme (+ oracle) per channel that has cores, cores
// assigned channel ch = core index mod Channels (matching the affineGen
// pinning). A channel with no cores sees no traffic; skipping it keeps the
// partition list dense (engine.RunSharded requires non-empty partitions)
// without changing any result: the merge's pristine correction accounts
// for untouched banks either way.
func (sh *shardState) build(cfg *Config) error {
	banks := cfg.Geometry.TotalBanks()
	sh.parts = sh.parts[:0]
	for ch := 0; ch < cfg.Geometry.Channels; ch++ {
		part := shardPart{channel: engine.ChannelRange{Lo: ch, Hi: ch + 1}}
		for i := ch; i < cfg.Cores; i += cfg.Geometry.Channels {
			cs, slot, err := cfg.closedSlot(sh.policy, i)
			if err != nil {
				return err
			}
			part.closed = append(part.closed, cs)
			part.slots = append(part.slots, slot)
		}
		if len(part.slots) == 0 {
			continue
		}
		var err error
		if part.ctrl, err = memctrl.New(cfg.Geometry, cfg.Timing); err != nil {
			return err
		}
		if part.scheme, err = cfg.Scheme.Build(banks, cfg.Geometry.RowsPerBank, cfg.Threshold, cfg.Seed); err != nil {
			return err
		}
		if cfg.CheckProtection && part.scheme.Kind() != mitigation.KindNone {
			part.oracle = mitigation.NewOracle(banks, cfg.Geometry.RowsPerBank, cfg.Threshold)
		}
		sh.parts = append(sh.parts, part)
	}
	return nil
}

// engineConfig wires one engine run over pre-built components — the
// settings every run path shares. The sequential path adds open-loop
// slots, attribution and live sampling; a sharded partition adds its
// channel range.
func (c *Config) engineConfig(cores []engine.CoreSlot, policy addrmap.Policy, ctrl *memctrl.Controller,
	scheme mitigation.Scheme, oracle *mitigation.Oracle, scratch *engine.Scratch) engine.Config {
	cpuNS := c.cpuCycleNS()
	return engine.Config{
		Cores:           cores,
		Ctrl:            ctrl,
		Policy:          policy,
		Geometry:        c.Geometry,
		Scheme:          scheme,
		Oracle:          oracle,
		Scrambler:       c.Scrambler,
		IgnoreScrambler: c.IgnoreScrambler,
		CPUPerBus:       c.CPUPerBus,
		IntervalCPU:     int64(c.IntervalNS / cpuNS),
		EpochCPU:        int64(c.EpochNS / cpuNS),
		CPUCycleNS:      cpuNS,
		BusCycleNS:      1000.0 / float64(c.Timing.BusMHz),
		Batch:           true,
		Scratch:         scratch,
	}
}
