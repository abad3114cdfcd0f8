// Package sim wires the substrates into the paper's experimental platform:
// multi-core request streams (internal/trace, internal/cpu) drive the
// memory controller (internal/memctrl) through an address-mapping policy
// (internal/addrmap), with a crosstalk-mitigation scheme
// (internal/mitigation, internal/core) observing every row activation and
// injecting victim refreshes. A run measures everything the paper reports:
// the CMRPO energy breakdown (via internal/energy) and the execution-time
// overhead (via a paired run against the no-mitigation baseline with the
// identical request streams).
package sim

import (
	"fmt"

	"catsim/internal/cpu"
	"catsim/internal/dram"
	"catsim/internal/energy"
	"catsim/internal/engine"
	"catsim/internal/memctrl"
	"catsim/internal/mitigation"

	"catsim/internal/trace"
	"catsim/internal/workload"
)

// SchemeSpec is a buildable description of a mitigation scheme, the unit
// the experiment harness iterates over. It is the grid-friendly flat form
// of mitigation.SchemeSpec: Spec converts to the serializable registry
// spec, FromSpec converts back, and Build goes through the registry.
type SchemeSpec struct {
	Kind mitigation.Kind
	// Counters is the scheme's counter budget: per bank for SCA groups,
	// CAT counters, cache entries, CoMeT sketch counters and DSAC table
	// entries; total shared entries for ABACuS.
	Counters  int
	MaxLevels int     // CAT tree depth L
	PRAProb   float64 // PRA only; 0 selects the paper's p for the threshold
	Ways      int     // counter cache associativity (8) / CoMeT sketch depth (4)
	// SpecSeed, when non-zero, seeds the scheme's private PRNG streams
	// directly (a user-supplied "seed=" spec param); zero derives them
	// from the run seed as always.
	SpecSeed uint64
}

// Label returns the figure label ("DRCAT_64", "PRA_0.002", ...) via the
// mitigation builder registry, which owns per-family naming alongside
// construction (mitigation.Label).
func (s SchemeSpec) Label(threshold uint32) string {
	return mitigation.Label(s.Spec(threshold, 0))
}

// Seed-stream separators: each scheme family with a private PRNG derives
// it from the run seed xor a family constant, so a run's scheme stream,
// workload streams and any sibling schemes never share state.
const (
	praSeedMix   = 0x9e3779b97f4a7c15
	cometSeedMix = 0xC0337C0337
	dsacSeedMix  = 0xD5AC0D5AC0
)

// schemeSeed resolves the seed one scheme family's private PRNG stream
// derives from: the user-pinned SpecSeed verbatim, or the run seed xor
// the family constant.
func (s SchemeSpec) schemeSeed(seed, mix uint64) uint64 {
	if s.SpecSeed != 0 {
		return s.SpecSeed
	}
	return seed ^ mix
}

// runSeed returns the seed value Spec threads into the scheme's "seed"
// param for a run with the given run seed — the value a reused scheme's
// mitigation.Resettable.ResetRun must receive so its PRNG streams replay
// exactly what a fresh build would draw. Kinds without a private PRNG
// ignore the value.
func (s SchemeSpec) runSeed(seed uint64) uint64 {
	switch s.Kind {
	case mitigation.KindPRA:
		return s.schemeSeed(seed, praSeedMix)
	case mitigation.KindCoMeT:
		return s.schemeSeed(seed, cometSeedMix)
	case mitigation.KindStochastic:
		return s.schemeSeed(seed, dsacSeedMix)
	}
	return seed
}

// Spec converts the grid unit into the serializable registry spec for one
// refresh threshold, threading the run seed into the per-family PRNG
// streams (SpecSeed overrides it verbatim when a user pinned "seed=").
func (s SchemeSpec) Spec(threshold uint32, seed uint64) mitigation.SchemeSpec {
	spec := mitigation.SchemeSpec{Kind: s.Kind, Threshold: threshold, Params: mitigation.Params{}}
	schemeSeed := func(mix uint64) uint64 { return s.schemeSeed(seed, mix) }
	switch s.Kind {
	case mitigation.KindNone:
		return mitigation.SchemeSpec{Kind: mitigation.KindNone}
	case mitigation.KindSCA, mitigation.KindABACuS:
		spec.Params.SetInt("counters", s.Counters)
	case mitigation.KindPRA:
		if s.PRAProb != 0 {
			spec.Params.SetFloat("p", s.PRAProb)
		}
		spec.Params.SetUint64("seed", schemeSeed(praSeedMix))
	case mitigation.KindPRCAT, mitigation.KindDRCAT:
		spec.Params.SetInt("counters", s.Counters)
		spec.Params.SetInt("levels", s.MaxLevels)
	case mitigation.KindCounterCache:
		spec.Params.SetInt("counters", s.Counters)
		if s.Ways != 0 {
			spec.Params.SetInt("ways", s.Ways)
		}
	case mitigation.KindCoMeT:
		spec.Params.SetInt("counters", s.Counters)
		if s.Ways != 0 {
			spec.Params.SetInt("depth", s.Ways)
		}
		spec.Params.SetUint64("seed", schemeSeed(cometSeedMix))
	case mitigation.KindStochastic:
		spec.Params.SetInt("counters", s.Counters)
		spec.Params.SetUint64("seed", schemeSeed(dsacSeedMix))
	}
	return spec
}

// FromSpec converts a registry spec into the grid unit. Parameters with no
// flat-field equivalent (the CAT ablation knobs weightbits/presplit) are
// rejected: they are buildable through mitigation.Build but cannot ride a
// simulation grid cell.
func FromSpec(spec mitigation.SchemeSpec) (SchemeSpec, error) {
	s := SchemeSpec{Kind: spec.Kind}
	for name := range spec.Params {
		switch name {
		case "counters", "levels", "ways", "depth", "p", "seed":
		default:
			return s, fmt.Errorf("sim: spec %q: param %q not supported in experiment grids", spec.String(), name)
		}
	}
	var err error
	if s.Counters, err = spec.Params.Int("counters", 0); err != nil {
		return s, err
	}
	defaultLevels := 0
	if spec.Kind == mitigation.KindPRCAT || spec.Kind == mitigation.KindDRCAT {
		defaultLevels = 11
	}
	if s.MaxLevels, err = spec.Params.Int("levels", defaultLevels); err != nil {
		return s, err
	}
	if s.Ways, err = spec.Params.Int("ways", 0); err != nil {
		return s, err
	}
	if s.Ways == 0 {
		if s.Ways, err = spec.Params.Int("depth", 0); err != nil {
			return s, err
		}
	}
	if s.PRAProb, err = spec.Params.Float("p", 0); err != nil {
		return s, err
	}
	if s.SpecSeed, err = spec.Params.Uint64("seed", 0); err != nil {
		return s, err
	}
	if _, pinned := spec.Params["seed"]; pinned && s.SpecSeed == 0 {
		// 0 is the derive-from-run-seed sentinel; silently dropping an
		// explicit seed=0 pin would make "pinned" runs vary with -seed.
		return s, fmt.Errorf("sim: spec %q: pinned seed must be nonzero", spec.String())
	}
	return s, nil
}

// Build instantiates the scheme for a system with the given banks and rows
// per bank at the given refresh threshold, via the mitigation builder
// registry.
func (s SchemeSpec) Build(banks, rowsPerBank int, threshold uint32, seed uint64) (mitigation.Scheme, error) {
	return mitigation.Build(s.Spec(threshold, seed), banks, rowsPerBank)
}

// Config describes one simulation run.
type Config struct {
	Geometry dram.Geometry
	Timing   dram.Timing
	// ChannelInterleaved selects the parallelism-maximising mapping
	// (§VIII-B's 4-channel policy); false selects rw:rk:bk:ch:col:offset.
	ChannelInterleaved bool

	Cores           int
	Window          int // outstanding reads per core (0 = cpu.DefaultWindow)
	CPUPerBus       int // CPU cycles per bus cycle (0 = 4, i.e. 3.2 GHz/800 MHz)
	RequestsPerCore int

	Workload trace.Spec
	// WorkloadPerCore optionally gives each core its own workload (a
	// multi-programmed mix, as in the MSC methodology); when set it must
	// have exactly Cores entries and overrides Workload.
	WorkloadPerCore []trace.Spec
	// Attack, when non-nil, blends kernel-attack traffic into every core's
	// stream (§VIII-D).
	Attack *AttackConfig
	// AttackOnsetFrac delays the attack blend: each core's first
	// OnsetFrac*RequestsPerCore requests stay benign, the rest carry the
	// blend (0 = attack active from the start). Requires Attack; with
	// epochs enabled, the figt study uses it to watch adaptation respond
	// to onset.
	AttackOnsetFrac float64

	// OpenLoop, when non-nil, attaches an open-loop workload: arrival
	// processes over a multi-tenant cohort that hit the controller at
	// absolute times instead of being paced by core windows. It runs
	// alongside any closed-loop cores (Cores may be 0 for a pure open-loop
	// run). A zero OpenLoop.Requests budget defaults to
	// RequestsPerCore×Sources. Per-tenant attribution lands in
	// Result.Tenants.
	OpenLoop *workload.Config
	// Replay, when non-nil, replays a captured trace container (see
	// Capture) instead of building generators: its closed streams become
	// the cores and its open streams the arrival slots, byte-identically.
	// Cores, RequestsPerCore, workload and attack config must be zero, and
	// Geometry must match the capture (zero Geometry adopts it). OpenLoop
	// may still be set alongside: its cohort spec is rebuilt for per-tenant
	// attribution only — no randomness is drawn from it.
	Replay *trace.Container

	Scheme    SchemeSpec
	Threshold uint32 // refresh threshold T

	// IntervalNS is the auto-refresh interval for scheme resets
	// (0 = the real 64 ms).
	IntervalNS float64

	// EpochNS, when positive, slices the run into fixed-duration epochs
	// and records per-epoch metrics into Result.Epochs. Sampling is pure
	// observation: any epoch length (including 0, no sampling) yields an
	// identical final Result apart from the Epochs field itself.
	EpochNS float64

	// OnSample, when non-nil (and EpochNS is positive), receives each
	// epoch sample as it completes — the streaming hook behind
	// catsim-server's live NDJSON/SSE feeds. The callback sees exactly
	// the samples that land in Result.Epochs, in the same order: the
	// sequential engine calls it live from the simulation goroutine, and
	// a sharded run delivers the deterministically merged sequence after
	// the partitions fold (same values, same order — locked by test).
	// Observation only: it cannot influence the run, and it is excluded
	// from CacheKey (two configs differing only in OnSample share one
	// cache entry, whose Result.Epochs carries the identical samples).
	OnSample func(engine.Sample)

	// ThresholdScale records by how much Threshold was scaled down
	// relative to the modeled hardware threshold (0 or 1 = unscaled).
	// Scaling the threshold with a shortened run keeps the *number* of
	// refresh triggers representative of one full interval, which makes
	// the per-time refresh rate 1/scale too high; Run compensates by (a)
	// shrinking the bank-busy cost per refreshed row and (b) deflating
	// the refresh power component, for the threshold-triggered schemes.
	// PRA refreshes per access, so its rates are already correct and are
	// not adjusted.
	ThresholdScale float64

	Seed uint64
	// CheckProtection attaches the crosstalk oracle (slower; tests only).
	CheckProtection bool

	// ChannelAffine pins core i's generated request stream to channel
	// i%Geometry.Channels: every address is remapped onto that channel with
	// row, rank, bank and column preserved (addrmap.PinChannel), so each
	// channel's traffic — and therefore its controller, bus and scheme
	// state — is owned by one set of cores. Required for sharded runs and
	// meaningful on its own (an affine sequential run sees the identical
	// streams, and Capture records them pinned). Incompatible with Replay:
	// captured streams replay exactly as recorded.
	ChannelAffine bool
	// Shards, when >= 1, requests the channel-partitioned engine: one full
	// engine instance per channel with its own controller and scheme,
	// executed concurrently and merged deterministically
	// (engine.RunSharded). The value only bounds the worker goroutines —
	// the partition granularity is always one channel — so every Shards >=
	// 1 value produces byte-identical Results at any GOMAXPROCS. Requires
	// ChannelAffine; Run falls back to the sequential reference engine for
	// open-loop runs and for schemes that are not shard-safe
	// (mitigation.ShardSafe). A sharded run equals the sequential one
	// exactly whenever no auto-refresh interval boundary fires mid-run;
	// past one, each partition advances its interval clock from its own
	// channel's traffic — the per-channel-controller view of a real
	// multi-channel system — while the sequential engine resets every bank
	// from a single global clock.
	Shards int

	// Scrambler models row-address remapping inside the DRAM (§VII's
	// physical-adjacency assumption): the mitigation scheme and the
	// oracle operate on physical rows, i.e. the controller knows the
	// mapping. Nil means identity. IgnoreScrambler feeds the scheme
	// logical rows instead — the misconfiguration the tests show to be
	// unsafe (the oracle always judges in physical space).
	Scrambler       dram.Scrambler
	IgnoreScrambler bool
}

// AttackConfig selects a kernel attack blend. Pattern defaults to the
// paper's Gaussian kernels; the adversarial patterns (double-sided,
// many-sided, bank-sweep) drive the protection harness.
type AttackConfig struct {
	Kernel  int
	Mode    trace.AttackMode
	Pattern trace.Pattern
}

// Result is everything one run measures.
type Result struct {
	ExecNS           float64
	Counts           mitigation.Counts
	Breakdown        energy.Breakdown
	CMRPO            float64
	AvgReadLatencyNS float64
	// VictimBusyFrac is the fraction of total bank-time consumed by
	// victim refreshes — a deterministic attribution that complements the
	// paired-run ETO (which carries scheduling noise at small scales).
	VictimBusyFrac   float64
	PerBankActs      []int64
	OracleViolations int64
	// Protection-harness metrics (CheckProtection only): distinct victim
	// rows whose crosstalk exposure crossed the threshold unrefreshed,
	// distinct victim rows with any exposure, and their ratio. Zero for
	// sound deterministic schemes; the quantified failure probability for
	// PRA/DSAC under adversarial patterns.
	MissedVictimRows  int64
	ExposedVictimRows int64
	MissedVictimRate  float64
	SchemeLabel       string
	// Epochs holds the per-epoch time series when Config.EpochNS is set
	// (nil otherwise): activity deltas, tracking-structure occupancy and
	// cumulative oracle exposure per fixed-duration epoch.
	Epochs []EpochSample
	// Tenants holds the per-tenant attribution when Config.OpenLoop is set
	// (nil otherwise): each tenant's owned-row activations, victim-refresh
	// rows, and — on protection runs — its share of exposed/missed victim
	// rows. The attacker, when configured, is the last entry.
	Tenants []workload.TenantStat
}

// EpochSample is one epoch's worth of time-series metrics, recorded by
// the engine when Config.EpochNS is positive.
type EpochSample = engine.Sample

func (c *Config) fill() {
	if c.Window == 0 {
		c.Window = cpu.DefaultWindow
	}
	if c.CPUPerBus == 0 {
		c.CPUPerBus = cpu.DefaultCPUCyclesPerBusCycle
	}
	if c.IntervalNS == 0 {
		c.IntervalNS = dram.RefreshIntervalNS()
	}
	if c.ThresholdScale == 0 {
		c.ThresholdScale = 1
	}
	if c.Timing.BusMHz == 0 {
		c.Timing = dram.DDR3_1600()
	}
	if c.Geometry.Channels == 0 {
		if c.Replay != nil {
			c.Geometry = c.Replay.Geometry
		} else {
			c.Geometry = dram.Default2Channel()
		}
	}
}

func (c *Config) validate() error {
	if c.Replay != nil {
		if c.Cores != 0 || c.RequestsPerCore != 0 {
			return fmt.Errorf("sim: replay supplies the request streams; Cores and RequestsPerCore must be zero")
		}
		if c.WorkloadPerCore != nil || c.Attack != nil {
			return fmt.Errorf("sim: replay supplies the request streams; per-core workloads and attack config must be empty")
		}
		if c.Geometry != c.Replay.Geometry {
			return fmt.Errorf("sim: config geometry %v does not match the captured geometry %v",
				c.Geometry, c.Replay.Geometry)
		}
	} else {
		if c.Cores < 1 && c.OpenLoop == nil {
			return fmt.Errorf("sim: need at least one core or an open-loop workload")
		}
		if c.Cores >= 1 && c.RequestsPerCore < 1 {
			return fmt.Errorf("sim: need at least one request per core")
		}
		if c.Attack != nil && c.Cores < 1 {
			return fmt.Errorf("sim: attack config requires closed-loop cores (embed an attacker tenant in the open-loop cohort instead)")
		}
	}
	if c.OpenLoop != nil {
		ol := c.openConfig()
		if err := ol.Validate(); err != nil {
			return err
		}
		if ol.Requests < ol.Sources {
			return fmt.Errorf("sim: open-loop budget of %d requests cannot feed %d sources",
				ol.Requests, ol.Sources)
		}
	}
	if c.Threshold < 1 {
		return fmt.Errorf("sim: refresh threshold must be positive")
	}
	if c.EpochNS < 0 {
		return fmt.Errorf("sim: epoch length must not be negative")
	}
	if c.AttackOnsetFrac < 0 || c.AttackOnsetFrac >= 1 {
		return fmt.Errorf("sim: attack onset fraction %v out of [0,1)", c.AttackOnsetFrac)
	}
	if c.AttackOnsetFrac > 0 && c.Attack == nil {
		return fmt.Errorf("sim: attack onset fraction without an attack")
	}
	if c.WorkloadPerCore != nil && len(c.WorkloadPerCore) != c.Cores {
		return fmt.Errorf("sim: %d per-core workloads for %d cores",
			len(c.WorkloadPerCore), c.Cores)
	}
	if c.Shards < 0 {
		return fmt.Errorf("sim: negative shard count %d", c.Shards)
	}
	if c.Shards >= 1 && !c.ChannelAffine {
		return fmt.Errorf("sim: sharded runs need channel-affine streams (set ChannelAffine / -affine)")
	}
	if c.ChannelAffine && c.Replay != nil {
		return fmt.Errorf("sim: replayed streams replay exactly as captured; ChannelAffine applies to generated streams only")
	}
	return c.Geometry.Validate()
}

// Validate reports whether cfg describes a runnable simulation, applying
// the same default-filling and checks Run performs — without running it.
// Submission-time validators (catsim-server's POST handler) use it to
// reject bad configs before they occupy a worker.
func Validate(cfg Config) error {
	cfg.fill()
	return cfg.validate()
}

// Run executes one simulation: a fresh Context builds the mapping policy,
// controller, scheme, oracle and request streams from cfg, hands them to
// the epoch-driven event loop in internal/engine, and derives the energy
// breakdown and rate metrics from the end state. The engine's loser-tree
// scheduler replays the historical linear scan's causal order exactly, so
// results are byte-identical to the pre-engine monolith (locked by the
// golden files and the epoch/scheduler invariance tests). The Result owns
// its memory.
func Run(cfg Config) (Result, error) {
	res, err := NewContext().Run(cfg)
	if err != nil {
		return Result{}, err
	}
	return res.Clone(), nil
}

// cpuCycleNS is the length of one CPU cycle in nanoseconds.
func (c *Config) cpuCycleNS() float64 {
	return 1000.0 / (float64(c.Timing.BusMHz) * float64(c.CPUPerBus))
}

// thresholdScaled reports whether the ThresholdScale compensation applies
// to a scheme kind: a scaled-down run of a threshold-triggered scheme.
// PRA refreshes per access, so its rates are already correct.
func (c *Config) thresholdScaled(kind mitigation.Kind) bool {
	return c.ThresholdScale < 1 && kind != mitigation.KindPRA && kind != mitigation.KindNone
}

// scaleVictimRefresh applies the bank-busy half of the ThresholdScale
// compensation: each refreshed victim row costs scale × its unscaled
// cycles. SetVictimRowCycles clamps, so a scaled value of 0 becomes the
// 1-cycle floor.
func (c *Config) scaleVictimRefresh(ctrl *memctrl.Controller, kind mitigation.Kind) {
	if c.thresholdScaled(kind) {
		ctrl.SetVictimRowCycles(int(float64(c.Timing.RowRefreshCycles())*c.ThresholdScale + 0.5))
	}
}

// deriveResult turns engine output plus end-state aggregates into the
// reported Result. Both engine paths use it: the sequential path hands it one
// controller's stats and one scheme's counts, the sharded path the sums
// over its per-channel partitions — the expressions are shared so the two
// paths agree bit for bit. label is the scheme's figure label (passed in
// so run contexts can cache the formatted string across a sweep).
func (c *Config) deriveResult(er engine.Result, counts mitigation.Counts, kind mitigation.Kind,
	countersPerBank int, stats memctrl.Stats, label string) (Result, error) {
	execNS := float64(er.EndCPU) * c.cpuCycleNS()
	banks := c.Geometry.TotalBanks()
	breakdown, err := energy.Compute(kind, countersPerBank, counts, banks, execNS)
	if err != nil {
		return Result{}, err
	}
	if c.thresholdScaled(kind) {
		// See Config.ThresholdScale: trigger counts match a full interval
		// while simulated time is scale*interval.
		breakdown.RefreshMW *= c.ThresholdScale
	}
	busNS := 1000.0 / float64(c.Timing.BusMHz)
	avgLat := 0.0
	if stats.Reads > 0 {
		avgLat = float64(stats.ReadLatencySum) / float64(stats.Reads) * busNS
	}
	return Result{
		ExecNS:           execNS,
		Counts:           counts,
		Breakdown:        breakdown,
		CMRPO:            breakdown.CMRPO(),
		AvgReadLatencyNS: avgLat,
		VictimBusyFrac:   float64(stats.VictimRefreshBusy) * busNS / (float64(banks) * execNS),
		PerBankActs:      er.PerBankActs,
		SchemeLabel:      label,
		Epochs:           er.Samples,
	}, nil
}

// addOracle folds one oracle's protection verdict into r; a sharded run
// folds one per partition.
func (r *Result) addOracle(o *mitigation.Oracle) {
	r.OracleViolations += o.Violations()
	r.MissedVictimRows += o.MissedVictimRows()
	r.ExposedVictimRows += o.ExposedVictimRows()
	if r.ExposedVictimRows > 0 {
		r.MissedVictimRate = float64(r.MissedVictimRows) / float64(r.ExposedVictimRows)
	}
}

// Clone deep-copies the slices a Result carries, detaching it from any
// run-context scratch memory it may alias. Run returns a clone already;
// results from Context.Run alias the context and must be cloned before
// the context's next run if they are retained.
func (r Result) Clone() Result {
	if r.PerBankActs != nil {
		r.PerBankActs = append([]int64(nil), r.PerBankActs...)
	}
	if r.Epochs != nil {
		r.Epochs = append([]EpochSample(nil), r.Epochs...)
	}
	if r.Tenants != nil {
		r.Tenants = append([]workload.TenantStat(nil), r.Tenants...)
	}
	return r
}

// PairResult reports a scheme run against its no-mitigation baseline.
type PairResult struct {
	Scheme   Result
	Baseline Result
	// ETO is the execution-time overhead (§VI): the relative slowdown of
	// the identical request streams caused by victim-refresh stalls.
	ETO float64
}

// RunPair runs cfg twice with identical seeds — once with the configured
// scheme and once with mitigation disabled — and reports the ETO.
func RunPair(cfg Config) (PairResult, error) {
	withScheme, err := Run(cfg)
	if err != nil {
		return PairResult{}, err
	}
	base := cfg
	base.Scheme = SchemeSpec{Kind: mitigation.KindNone}
	baseline, err := Run(base)
	if err != nil {
		return PairResult{}, err
	}
	eto := 0.0
	if baseline.ExecNS > 0 {
		eto = (withScheme.ExecNS - baseline.ExecNS) / baseline.ExecNS
	}
	return PairResult{Scheme: withScheme, Baseline: baseline, ETO: eto}, nil
}
