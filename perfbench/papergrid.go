package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"time"

	"catsim/internal/dram"
	"catsim/internal/experiments"
	"catsim/internal/mitigation"
	"catsim/internal/runner"
	"catsim/internal/sim"
	"catsim/internal/trace"
)

// paper-grid reproduces the paper's headline grids — Fig. 8 (CMRPO),
// Fig. 9 (ETO) and Fig. 12 (threshold sensitivity) — the way a user of
// cmd/experiments does, one benchmark program at a time: an op is
// "fig8 fig9 fig12 -workloads <w>", and a pass runs one op per workload
// (18) through one shared runner.Cache and runner.ContextPool at
// Parallel = the CPU count. Fig. 9 is served entirely from Fig. 8's
// cache entries; Fig. 12 shares the T=32K/16K cells.

// gridScale shrinks each run like cmd/experiments -scale.
const gridScale = 0.005

var gridFigures = []string{"fig8", "fig9", "fig12"}

// gridDigests are the per-workload report digests at defaultSeed and
// gridScale; every pass of a default-seed run must reproduce them. A
// deliberate model change re-records them: a default-seed run prints the
// new digest of every workload that no longer matches.
var gridDigests = map[string]string{
	"comm1": "c14de5e30e09d995", "comm2": "068b1100ecb634e8", "comm3": "9382acc57d7be0a8",
	"comm4": "47e11d5ca176cece", "comm5": "7008492c8266a6b5", "swapt": "52f98671af56a082",
	"fluid": "b28360a6f7a36201", "str": "cd27ec2c05b56e8a", "black": "d7a7d647b160b9ed",
	"ferret": "c9d715c8e9fd7104", "face": "c98cf306cb9fcb3c", "freq": "5bd9340797c92f16",
	"MTC": "8219da31b738e893", "MTF": "7b66a7abf140f6a4", "libq": "8859c384101a941f",
	"leslie": "4b683e65b7cdcd4e", "mum": "12d3e3e5c093579f", "tigr": "2b3a99dcd615c128",
}

func gridWorkloads(o *options) []string {
	names := trace.WorkloadNames()
	if o.smoke {
		names = names[:2]
	}
	return names
}

// gridEnv is one pass's shared cache and context pool.
type gridEnv struct {
	cache    *runner.Cache
	pool     *runner.ContextPool
	parallel int
}

func newGridEnv(parallel int) gridEnv {
	return gridEnv{cache: runner.NewCache(), pool: runner.NewContextPool(), parallel: parallel}
}

// gridOp runs the three figures for one workload and returns the digest
// of every report they emitted. corrupt damages one report value first.
func (e gridEnv) gridOp(workload string, seed uint64, corrupt bool) (string, error) {
	o := experiments.Options{
		Scale: gridScale, Seed: seed, Workloads: []string{workload},
		Parallel: e.parallel, Cache: e.cache, Pool: e.pool, NoCache: e.cache == nil, Quiet: true,
	}
	h := sha256.New()
	for _, name := range gridFigures {
		exp, ok := experiments.Lookup(name)
		if !ok {
			return "", fmt.Errorf("experiment %s is not registered", name)
		}
		err := exp.Run(o, func(r *experiments.Report) error {
			if corrupt && len(r.Rows) > 0 && len(r.Rows[0]) > 2 {
				r.Rows[0][2] = math.Pi
				corrupt = false
			}
			digestReport(h, r)
			return nil
		})
		if err != nil {
			return "", fmt.Errorf("%s -workloads %s: %w", name, workload, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// digestReport hashes a report's table. Meta is left out: its context-pool
// counters depend on worker scheduling.
func digestReport(h hash.Hash, r *experiments.Report) {
	fmt.Fprintf(h, "%s\x00%s\x00%v\x00%v\x00%v\n", r.Name, r.Title, r.Columns, r.Rows, r.Notes)
}

// gridCell mirrors experiments' cell construction for one workload and
// scheme at one threshold. The benchmark checks the mirror against the
// cache's own keys, so the request counts derived from it are exact.
func gridCell(wl trace.Spec, spec sim.SchemeSpec, threshold uint32, seed uint64) sim.Config {
	if spec.Kind == mitigation.KindPRA && spec.PRAProb == 0 {
		spec.PRAProb = mitigation.PRAProbabilityForThreshold(threshold)
	}
	t := uint32(math.Round(float64(threshold) * gridScale))
	if t < 16 {
		t = 16
	}
	return sim.Config{
		Geometry:        dram.Default2Channel(),
		Timing:          dram.DDR3_1600(),
		Cores:           gridCores,
		RequestsPerCore: gridRequestsPerCore(wl),
		Workload:        wl,
		Scheme:          spec,
		Threshold:       t,
		ThresholdScale:  gridScale,
		IntervalNS:      dram.RefreshIntervalNS() * gridScale,
		Seed:            seed,
	}
}

// gridCores is the core count of every paper-grid cell.
const gridCores = 2

// gridRequestsPerCore is a paper-grid run's per-core request count.
func gridRequestsPerCore(wl trace.Spec) int {
	return max(int(experiments.CPUCyclesPerInterval/float64(wl.GapMean)*gridScale), 1000)
}

// gridLineup is the Fig. 8 scheme lineup plus the shared baseline.
func gridLineup() []sim.SchemeSpec {
	return []sim.SchemeSpec{
		{Kind: mitigation.KindPRA},
		{Kind: mitigation.KindSCA, Counters: 64},
		{Kind: mitigation.KindSCA, Counters: 128},
		{Kind: mitigation.KindPRCAT, Counters: 64, MaxLevels: 11},
		{Kind: mitigation.KindDRCAT, Counters: 64, MaxLevels: 11},
		{Kind: mitigation.KindNone},
	}
}

// checkMirror verifies that every gridLineup cell of the workload is a
// run the cache executed.
func checkMirror(cache *runner.Cache, wl trace.Spec, seed uint64) error {
	keys := map[string]bool{}
	for _, k := range cache.Runs() {
		keys[k] = true
	}
	for _, spec := range gridLineup() {
		cfg := gridCell(wl, spec, 32768, seed)
		if !keys[sim.CacheKey(cfg)] {
			return fmt.Errorf("benchmark cell mirror for %s/%s is not among the grid's runs", spec.Label(cfg.Threshold), wl.Name)
		}
	}
	return nil
}

func measurePaperGrid(o *options, m *measurement) error {
	names := gridWorkloads(o)
	specs := make([]trace.Spec, len(names))
	for i, n := range names {
		wl, err := trace.Lookup(n)
		if err != nil {
			return err
		}
		specs[i] = wl
	}
	parallel := runtimeCPUs()

	// Set-up: a sim.Context built for every Fig. 8 cell shape.
	var shapes []sim.Config
	for _, wl := range specs {
		for _, spec := range gridLineup() {
			shapes = append(shapes, gridCell(wl, spec, 32768, o.seed))
		}
	}
	if err := m.timeSetup(contextBuilds(shapes)...); err != nil {
		return err
	}
	// Warm-up, excluded from timing.
	if _, err := newGridEnv(parallel).gridOp(names[0], o.seed, false); err != nil {
		return err
	}

	expect := map[string]string{}
	if o.seed == defaultSeed && !o.smoke {
		expect = gridDigests
	}
	got := map[string]string{}
	start := time.Now()
	for p := 0; !m.enough(o, start); p++ {
		env := newGridEnv(parallel)
		err := m.pass(func() error {
			for i, name := range names {
				op := m.attempted
				m.attempted++
				runs := len(env.cache.Runs())
				t0 := time.Now()
				d, err := env.gridOp(name, o.seed, o.corrupted(op))
				m.opMS = append(m.opMS, float64(time.Since(t0).Nanoseconds())/1e6)
				if err != nil {
					m.fail(op, "%v", err)
					continue
				}
				m.simReqs += int64(len(env.cache.Runs())-runs) * gridCores * int64(gridRequestsPerCore(specs[i]))
				switch want := expect[name]; {
				case want != "" && d != want:
					m.fail(op, "%s digest %s, recorded %s", name, d, want)
				case got[name] == "":
					got[name] = d
				case got[name] != d:
					m.fail(op, "%s digest %s differs from pass 0's %s", name, d, got[name])
				}
				if p == 0 {
					if err := checkMirror(env.cache, specs[i], o.seed); err != nil {
						m.fail(op, "%v", err)
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	// The sequential, uncached reference path must agree with the
	// measured parallel cached one, on two workloads picked by the seed
	// (every workload in a smoke run).
	for k := 0; k < 2; k++ {
		i := int(mix(o.seed, uint64(k)) % uint64(len(names)))
		if o.smoke {
			i = k
		}
		d, err := gridEnv{parallel: 1, pool: runner.NewContextPool()}.gridOp(names[i], o.seed, false)
		if err != nil {
			m.fail(i, "reference run: %v", err)
		} else if d != got[names[i]] {
			m.fail(i, "%s: reference digest %s, measured %s", names[i], d, got[names[i]])
		}
	}
	if len(m.opMS) == 0 {
		return errNoOps
	}
	return nil
}
