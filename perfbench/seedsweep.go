package main

import (
	"reflect"
	"time"

	"catsim/internal/mitigation"
	"catsim/internal/runner"
	"catsim/internal/sim"
	"catsim/internal/trace"
)

// seed-sweep is a Monte-Carlo protection sweep: every deterministic
// tracker kind × adversarial pattern cell runs over many seeds, one
// simulation per op, sequentially on one runner.ContextPool, with the
// crosstalk oracle on at T=64. Each seed is a fresh request stream, so
// stream memoization cannot help; context reset, oracle reset and the
// trackers under heavy refresh pressure are what it stresses. A pass is
// one round: every cell × sweepSeeds seeds.

const (
	sweepThreshold = 64
	sweepRequests  = 2000 // per core
	sweepCores     = 2
	sweepSeeds     = 32 // seeds per cell per round
	// sweepCheckEvery is the share of ops re-run through a fresh sim.Run.
	sweepCheckEvery = 16
)

// sweepKinds are the deterministic trackers: each must miss no victim.
func sweepKinds() []sim.SchemeSpec {
	return []sim.SchemeSpec{
		{Kind: mitigation.KindDRCAT, Counters: 64, MaxLevels: 11},
		{Kind: mitigation.KindSCA, Counters: 128},
		{Kind: mitigation.KindCoMeT, Counters: 2048, Ways: 4},
		{Kind: mitigation.KindABACuS, Counters: 1024},
	}
}

func sweepPatterns() []trace.Pattern {
	return []trace.Pattern{trace.PatternDoubleSided, trace.PatternManySided, trace.PatternBankSweep}
}

// sweepCells returns the kind × pattern cells with their seeds unset.
func sweepCells() ([]sim.Config, error) {
	benign, err := trace.Lookup("black")
	if err != nil {
		return nil, err
	}
	var cells []sim.Config
	for _, spec := range sweepKinds() {
		for _, p := range sweepPatterns() {
			cells = append(cells, sim.Config{
				Cores:           sweepCores,
				RequestsPerCore: sweepRequests,
				Workload:        benign,
				Attack:          &sim.AttackConfig{Kernel: 0, Mode: trace.Heavy, Pattern: p},
				Scheme:          spec,
				Threshold:       sweepThreshold,
				CheckProtection: true,
			})
		}
	}
	return cells, nil
}

// sweepSeed is the run seed of seed s of round r; warm-up rounds are
// negative, so they never repeat a measured stream.
func sweepSeed(o *options, round, s int) uint64 {
	return mix(o.seed, uint64(int64(round)*sweepSeeds+int64(s)+1<<20))
}

func measureSeedSweep(o *options, m *measurement) error {
	cells, err := sweepCells()
	if err != nil {
		return err
	}
	seeds := sweepSeeds
	if o.smoke {
		cells, seeds = cells[:2], 2
	}

	// Set-up: a sim.Context built for every cell shape.
	if err := m.timeSetup(contextBuilds(cells)...); err != nil {
		return err
	}

	pool := runner.NewContextPool()
	type sample struct {
		op  int
		cfg sim.Config
		res sim.Result
	}
	var samples []sample
	round := func(r int, measured bool) error {
		for _, cell := range cells {
			for s := 0; s < seeds; s++ {
				cfg := cell
				cfg.Seed = sweepSeed(o, r, s)
				if !measured {
					if _, err := pool.Run(cfg); err != nil {
						return err
					}
					continue
				}
				op := m.attempted
				m.attempted++
				t0 := time.Now()
				res, err := pool.Run(cfg)
				m.opMS = append(m.opMS, float64(time.Since(t0).Nanoseconds())/1e6)
				if err != nil {
					m.fail(op, "%v", err)
					continue
				}
				m.simReqs += int64(cfg.Cores * cfg.RequestsPerCore)
				if o.corrupted(op) {
					res.MissedVictimRows++
				}
				if res.MissedVictimRows != 0 {
					m.fail(op, "%s seed %d: %d missed victim rows from a deterministic tracker",
						res.SchemeLabel, cfg.Seed, res.MissedVictimRows)
				}
				if op%sweepCheckEvery == 0 {
					samples = append(samples, sample{op, cfg, res})
				}
			}
		}
		return nil
	}
	// Warm-up round, excluded from timing.
	if err := round(-1, false); err != nil {
		return err
	}
	start := time.Now()
	for r := 0; !m.enough(o, start); r++ {
		if err := m.pass(func() error { return round(r, true) }); err != nil {
			return err
		}
	}

	// A sampled share of ops must match a fresh, unpooled sim.Run exactly.
	for _, s := range samples {
		want, err := sim.Run(s.cfg)
		if err != nil {
			m.fail(s.op, "fresh re-run: %v", err)
		} else if !reflect.DeepEqual(want, s.res) {
			m.fail(s.op, "%s seed %d: pooled result differs from a fresh sim.Run", want.SchemeLabel, s.cfg.Seed)
		}
	}
	if len(m.opMS) == 0 {
		return errNoOps
	}
	return nil
}
