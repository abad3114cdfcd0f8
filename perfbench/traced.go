package main

import (
	"fmt"

	"catsim/internal/runner"
	"catsim/internal/sim"
	"catsim/internal/trace"
)

// The traced runs. Each probes a sample of its workload's own run
// configs layer by layer (layers.go) and runs one pass of the workload
// itself with a span around every op, reading the runner's and the
// server's exact counters at the end. Op ids are shared by every span of
// one op: probe cells take ids from 0, workload ops from opsBase.

const opsBase = 1 << 20

func tracePaperGrid(o *options, ls *layerStats) error {
	names := gridWorkloads(o)
	var cfgs []sim.Config
	for _, name := range names {
		wl, err := trace.Lookup(name)
		if err != nil {
			return err
		}
		for _, spec := range gridLineup() {
			cfgs = append(cfgs, gridCell(wl, spec, 32768, o.seed))
		}
	}
	if err := probeAll(ls, cfgs, 0); err != nil {
		return err
	}

	env := newGridEnv(runtimeCPUs())
	for i, name := range names {
		wl, err := trace.Lookup(name)
		if err != nil {
			return err
		}
		s := ls.tr.begin("runner.op", -1, opsBase+i)
		d, err := env.gridOp(name, o.seed, o.corrupted(i))
		ls.tr.end(s, 1)
		if err != nil {
			return err
		}
		want, recorded := gridDigests[name]
		ls.check(!recorded || o.seed != defaultSeed || d == want,
			"%s digest %s, recorded %s", name, d, want)
		ls.check(checkMirror(env.cache, wl, o.seed) == nil, "%s: cell mirror is not among the grid's runs", name)
	}
	ls.cacheRuns, ls.cacheHits = int64(len(env.cache.Runs())), env.cache.Hits()
	ls.contextBuilds, ls.contextReuses = env.pool.Stats()
	return nil
}

func traceSeedSweep(o *options, ls *layerStats) error {
	cells, err := sweepCells()
	if err != nil {
		return err
	}
	seeds := 4
	if o.smoke {
		cells, seeds = cells[:2], 1
	}
	var cfgs []sim.Config
	for _, cell := range cells {
		for s := 0; s < seeds; s++ {
			cfg := cell
			cfg.Seed = sweepSeed(o, 0, s)
			cfgs = append(cfgs, cfg)
		}
	}
	if err := probeAll(ls, cfgs, 0); err != nil {
		return err
	}

	pool := runner.NewContextPool()
	op := opsBase
	for _, cell := range cells {
		for s := 0; s < sweepSeeds && (!o.smoke || s < 2); s++ {
			cfg := cell
			cfg.Seed = sweepSeed(o, 0, s)
			sp := ls.tr.begin("runner.run", -1, op)
			res, err := pool.Run(cfg)
			ls.tr.end(sp, int64(cfg.Cores*cfg.RequestsPerCore))
			if err != nil {
				return err
			}
			if o.corrupted(op - opsBase) {
				res.MissedVictimRows++
			}
			ls.check(res.MissedVictimRows == 0, "%s seed %d: %d missed victim rows",
				res.SchemeLabel, cfg.Seed, res.MissedVictimRows)
			op++
		}
	}
	ls.contextBuilds, ls.contextReuses = pool.Stats()
	return nil
}

func traceServeJobs(o *options, ls *layerStats) error {
	seeds := 4
	if o.smoke {
		seeds = 1
	}
	var cfgs []sim.Config
	for s := 0; s < seeds; s++ {
		for _, t := range jobTemplates {
			req := t(mix(o.seed, uint64(s)))
			cfg, err := req.Config()
			if err != nil {
				return err
			}
			cfgs = append(cfgs, cfg)
		}
	}
	if err := probeAll(ls, cfgs, 0); err != nil {
		return err
	}

	c := newJobsClient()
	defer c.hc.CloseIdleConnections()
	n := jobsPerPass
	if o.smoke {
		n = 8
	}
	plan := planPass(o, 0, n)
	outs, st, err := c.onePass(plan, nil)
	if err != nil {
		return err
	}
	m := newMeasurement(ls.log)
	for j := range outs {
		if o.corrupted(j) {
			corruptTerminal(&outs[j])
		}
	}
	for _, j := range checkPass(o, m, plan, outs, 0) {
		checkDirect(m, j, plan[j].req, outs[j].terminal)
	}
	for j, out := range outs {
		ls.check(m.bad[j] == "", "job %d: %s", j, m.bad[j])
		if out.err != nil {
			continue
		}
		op := opsBase + j
		root := ls.tr.record("server.job", -1, op, out.start, out.done, 1)
		ls.tr.record("server.accept", root, op, out.start, out.accepted, 1)
		ls.tr.record("server.wait", root, op, out.accepted, out.first, 1)
		ls.tr.record("server.stream", root, op, out.first, out.done, 1)
		if out.cached {
			ls.cacheHits++
			ls.hitMS = append(ls.hitMS, out.latencyMS())
		} else {
			ls.missMS = append(ls.missMS, out.latencyMS())
		}
	}
	ls.engineRuns, ls.cacheRuns = st["engine_runs"], st["jobs"]
	ls.contextBuilds, ls.contextReuses = st["context_builds"], st["context_reuses"]
	if ls.engineRuns < 1 {
		return fmt.Errorf("server reports no engine runs after %d jobs", len(outs))
	}
	return nil
}
