package main

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sort"

	"catsim/internal/addrmap"
	"catsim/internal/dram"
	"catsim/internal/memctrl"
	"catsim/internal/mitigation"
	"catsim/internal/sim"
	"catsim/internal/trace"
)

// The traced run's layer decomposition. For a sample of the workload's
// own run configs, probeCell calls each layer's public entry point in
// turn over one and the same request sequence — the generators through
// sim.Capture, then addrmap.Policy.Decode, mitigation.Build plus
// Scheme.OnActivate, the oracle, the memory controller — and then the
// engine replaying that sequence whole (Context.Run with Config.Replay,
// on a warm context as in every pooled run, with the oracle off). The
// engine's own cost is the replay minus the layers it calls, which ran in
// isolation just before it. The probe also times a cold sim.Context run
// against the same run on the then warm context, and a sharded run
// against its sequential twin. Every replay must reproduce the live
// run's Result exactly.

// layerStats is the traced run's outcome.
type layerStats struct {
	tr        *tracer
	log       io.Writer
	attempted int
	failed    int
	selfTable []selfRow

	acts, refreshes int64 // from the replays' sim.Result.Counts

	cacheRuns, cacheHits         int64
	contextBuilds, contextReuses int64
	engineRuns                   int64
	hitMS, missMS                []float64
}

func newLayerStats(tr *tracer, log io.Writer) *layerStats { return &layerStats{tr: tr, log: log} }

// check counts one checked outcome of the traced run.
func (ls *layerStats) check(ok bool, format string, args ...any) {
	ls.attempted++
	if !ok {
		ls.failed++
		if ls.failed <= 5 {
			fmt.Fprintf(ls.log, "traced check failed: "+format+"\n", args...)
		}
	}
}

// isolated lists the spans whose work the engine's timed replay repeats
// internally.
var isolated = []string{"addrmap.decode", "tracker.activate", "memctrl.access"}

// engineSelf is the replay time not spent in the layers it calls.
func (ls *layerStats) engineSelf() float64 {
	s, _ := ls.tr.total("engine.replay")
	for _, name := range isolated {
		v, _ := ls.tr.total(name)
		s -= v
	}
	return s
}

// engineSelfCellsMS is engineSelf of each probed cell, in ms.
func (ls *layerStats) engineSelfCellsMS() []float64 {
	self := ls.tr.totalByOp("engine.replay")
	for _, name := range isolated {
		for op, v := range ls.tr.totalByOp(name) {
			self[op] -= v
		}
	}
	out := make([]float64, 0, len(self))
	for _, v := range self {
		out = append(out, v*1e3)
	}
	return out
}

// finish computes the self-time table over the decomposition spans. Two
// layers are settled by subtraction: the engine keeps only the replay
// time its isolated layers do not account for, and the sim layer's self
// time is what a cold run context costs over a warm one.
func (ls *layerStats) finish() {
	ls.selfTable = ls.tr.selfTimes("bench.cell", func(self map[string]float64) {
		replay, _ := ls.tr.total("engine.replay")
		self["engine"] += ls.engineSelf() - replay
		cold, _ := ls.tr.total("sim.cold_run")
		warm, _ := ls.tr.total("sim.warm_run")
		self["sim"] += cold - warm
	})
}

func (ls *layerStats) metrics() []metric {
	tot := func(name string) float64 { s, _ := ls.tr.total(name); return s }
	perReq := func(name string) float64 {
		s, n := ls.tr.total(name)
		if n == 0 {
			return 0
		}
		return s / float64(n) * 1e9
	}
	medMS := func(name string) float64 { return median(ls.tr.durationsMS(name)) }
	per := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	track, reset := tot("oracle.track"), tot("oracle.reset")
	resetShare := 0.0
	if track+reset > 0 {
		resetShare = reset / (track + reset)
	}
	_, replayReqs := ls.tr.total("engine.replay")
	cells := ls.engineSelfCellsMS()
	engNS := 0.0
	if replayReqs > 0 {
		engNS = ls.engineSelf() / float64(replayReqs) * 1e9
	}
	return []metric{
		{"trace.gen_s", tot("trace.capture"), "s"},
		{"trace.ns_per_req", perReq("trace.capture"), "ns"},
		{"workload.gen_s", tot("workload.capture"), "s"},
		{"workload.ns_per_req", perReq("workload.capture"), "ns"},
		{"addrmap.decode_s", tot("addrmap.decode"), "s"},
		{"addrmap.ns_per_req", perReq("addrmap.decode"), "ns"},
		{"tracker.activate_s", tot("tracker.build") + tot("tracker.activate"), "s"},
		{"tracker.ns_per_act", perReq("tracker.activate"), "ns"},
		{"tracker.refreshes_per_kact", 1000 * per(ls.refreshes, ls.acts), "count"},
		{"oracle.track_s", track, "s"},
		{"oracle.reset_s", reset, "s"},
		{"oracle.reset_share", resetShare, "ratio"},
		{"memctrl.access_s", tot("memctrl.access"), "s"},
		{"memctrl.ns_per_req", perReq("memctrl.access"), "ns"},
		{"engine.replay_s", tot("engine.replay"), "s"},
		{"engine.self_s", ls.engineSelf(), "s"},
		{"engine.ns_per_req", engNS, "ns"},
		{"engine.self_cell_iqr_ms", quantile(cells, 0.75) - quantile(cells, 0.25), "ms"},
		{"engine.shard_run_ms", medMS("engine.shard_run"), "ms"},
		{"engine.seq_twin_ms", medMS("engine.seq_twin"), "ms"},
		{"sim.cold_run_ms", medMS("sim.cold_run"), "ms"},
		{"sim.warm_run_ms", medMS("sim.warm_run"), "ms"},
		{"runner.cache_runs", float64(ls.cacheRuns), "count"},
		{"runner.cache_hits", float64(ls.cacheHits), "count"},
		{"runner.context_builds", float64(ls.contextBuilds), "count"},
		{"runner.context_reuses", float64(ls.contextReuses), "count"},
		{"server.accept_ms", medMS("server.accept"), "ms"},
		{"server.wait_ms", medMS("server.wait"), "ms"},
		{"server.stream_ms", medMS("server.stream"), "ms"},
		{"server.hit_p50_ms", median(ls.hitMS), "ms"},
		{"server.miss_p50_ms", median(ls.missMS), "ms"},
		{"server.engine_runs", float64(ls.engineRuns), "count"},
	}
}

// refresh is one victim refresh the tracker issued while request i
// activated.
type refresh struct {
	i    int
	bank int
	rr   mitigation.RefreshRange
}

// engineOrder flattens a capture into one request sequence ordered by
// estimated issue time in CPU cycles: closed streams by cumulative compute
// gap, open streams by arrival.
func engineOrder(c *trace.Container) ([]trace.Request, []int64) {
	var reqs []trace.Request
	var at []int64
	for _, s := range c.Streams {
		var clock int64
		for k, r := range s.Reqs {
			if s.Open {
				clock = s.Arrivals[k]
			} else {
				clock += int64(r.Gap)
			}
			reqs = append(reqs, r)
			at = append(at, clock)
		}
	}
	idx := make([]int, len(reqs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return at[idx[a]] < at[idx[b]] })
	outR, outAt := make([]trace.Request, len(reqs)), make([]int64, len(reqs))
	for k, i := range idx {
		outR[k], outAt[k] = reqs[i], at[i]
	}
	return outR, outAt
}

// probeChunk is how many requests each layer handles per span: small
// enough that the chunk's decoded coordinates stay cache-resident, as
// they do inside the engine, which handles one request at a time.
const probeChunk = 2048

// probeCell decomposes one run of cfg into its layers (see the file
// comment). op tags the spans.
func probeCell(ls *layerStats, cfg sim.Config, op int) error {
	tr := ls.tr
	root := tr.begin("bench.cell", -1, op)
	if cfg.Timing.BusMHz == 0 {
		cfg.Timing = dram.DDR3_1600()
	}
	cpuPerBus := int64(cfg.CPUPerBus)
	if cpuPerBus == 0 {
		cpuPerBus = 4
	}

	gen := "trace.capture"
	if cfg.OpenLoop != nil {
		gen = "workload.capture"
	}
	s := tr.begin(gen, root, op)
	c, err := sim.Capture(cfg)
	if err != nil {
		return err
	}
	n := 0
	for i := range c.Streams {
		n += len(c.Streams[i].Reqs)
	}
	tr.end(s, int64(n))
	reqs, at := engineOrder(c)
	geom := c.Geometry
	banks, rows := geom.TotalBanks(), geom.RowsPerBank

	var policy addrmap.Policy
	if cfg.ChannelInterleaved {
		policy, err = addrmap.NewChannelInterleaved(geom)
	} else {
		policy, err = addrmap.NewRowInterleaved(geom)
	}
	if err != nil {
		return err
	}
	// Building the layers is a run context's set-up, which the warm
	// replay below skips; it gets its own root.
	setup := tr.begin("bench.setup", -1, op)
	s = tr.begin("tracker.build", setup, op)
	scheme, err := mitigation.Build(cfg.Scheme.Spec(cfg.Threshold, cfg.Seed), banks, rows)
	if err != nil {
		return err
	}
	tr.end(s, 1)
	cross, hasCross := scheme.(mitigation.CrossBank)
	var orc *mitigation.Oracle
	if cfg.CheckProtection {
		s = tr.begin("oracle.build", setup, op)
		orc = mitigation.NewOracle(banks, rows, cfg.Threshold)
		tr.end(s, 1)
	}
	s = tr.begin("memctrl.build", setup, op)
	ctrl, err := memctrl.New(geom, cfg.Timing)
	if err != nil {
		return err
	}
	tr.end(s, 1)
	tr.end(setup, 0)
	// No collection may run during the timed loops: finish one now.
	runtime.GC()

	intervalCPU := int64(0)
	if cfg.IntervalNS > 0 {
		intervalCPU = int64(cfg.IntervalNS * float64(cfg.Timing.BusMHz) * float64(cpuPerBus) / 1000)
	}
	next := intervalCPU
	coords := make([]addrmap.Coord, probeChunk)
	flat := make([]int, probeChunk)
	var refs []refresh
	var boundaries []int // request index before which an interval boundary fell
	var bus int64
	for lo := 0; lo < n; lo += probeChunk {
		hi := min(lo+probeChunk, n)
		cnt := int64(hi - lo)

		s = tr.begin("addrmap.decode", root, op)
		for i := lo; i < hi; i++ {
			coords[i-lo] = policy.Decode(reqs[i].Addr)
		}
		tr.end(s, cnt)
		for i := lo; i < hi; i++ {
			flat[i-lo] = geom.Flat(coords[i-lo].Bank)
		}

		refs, boundaries = refs[:0], boundaries[:0]
		s = tr.begin("tracker.activate", root, op)
		for i := lo; i < hi; i++ {
			for intervalCPU > 0 && at[i] >= next {
				scheme.OnIntervalBoundary()
				boundaries = append(boundaries, i)
				next += intervalCPU
			}
			for _, rr := range scheme.OnActivate(flat[i-lo], coords[i-lo].Row) {
				refs = append(refs, refresh{i, flat[i-lo], rr})
			}
			if hasCross {
				for _, bf := range cross.PendingCrossBank() {
					refs = append(refs, refresh{i, bf.Bank, bf.Range})
				}
			}
		}
		tr.end(s, cnt)

		if orc != nil {
			s = tr.begin("oracle.track", root, op)
			k, b := 0, 0
			for i := lo; i < hi; i++ {
				for b < len(boundaries) && boundaries[b] == i {
					orc.RefreshAll()
					b++
				}
				orc.Activate(flat[i-lo], coords[i-lo].Row)
				for k < len(refs) && refs[k].i == i {
					orc.Refresh(refs[k].bank, refs[k].rr)
					k++
				}
			}
			tr.end(s, cnt)
		}

		s = tr.begin("memctrl.access", root, op)
		k := 0
		for i := lo; i < hi; i++ {
			bus = at[i] / cpuPerBus
			if reqs[i].Write {
				ctrl.Write(bus, coords[i-lo])
			} else {
				ctrl.Read(bus, coords[i-lo])
			}
			for k < len(refs) && refs[k].i == i {
				ctrl.VictimRefresh(bus, refs[k].bank, refs[k].rr.Rows())
				k++
			}
		}
		if hi == n {
			ctrl.FlushWrites(bus)
		}
		tr.end(s, cnt)
	}
	if orc != nil {
		s = tr.begin("oracle.reset", root, op)
		orc.Reset()
		tr.end(s, 1)
	}

	replay := sim.Config{
		Geometry: geom, Timing: cfg.Timing, ChannelInterleaved: cfg.ChannelInterleaved,
		Window: cfg.Window, CPUPerBus: cfg.CPUPerBus, Replay: c, OpenLoop: cfg.OpenLoop,
		Scheme: cfg.Scheme, Threshold: cfg.Threshold, ThresholdScale: cfg.ThresholdScale,
		IntervalNS: cfg.IntervalNS, EpochNS: cfg.EpochNS, Seed: cfg.Seed,
		CheckProtection: cfg.CheckProtection,
	}
	// The timed replay runs on a warm context, like every run of a pooled
	// sweep: the first run builds the stack, the timed one rewinds it. It
	// leaves the oracle off, which is timed on its own above: its table
	// reset per run costs many times the engine's own work, and its noise
	// would swamp that in the subtraction.
	timed := replay
	timed.CheckProtection = false
	rctx := sim.NewContext()
	if _, err := rctx.Run(timed); err != nil {
		return err
	}
	runtime.GC()
	s = tr.begin("engine.replay", root, op)
	got, err := rctx.Run(timed)
	if err != nil {
		return err
	}
	tr.end(s, int64(n))
	tr.end(root, 0)
	got = got.Clone()
	if replay.CheckProtection {
		if got, err = sim.Run(replay); err != nil {
			return err
		}
	}
	ls.acts += got.Counts.Activations
	ls.refreshes += got.Counts.RefreshEvents

	// Comparison runs, under their own root: a cold context, then the
	// same run again on it, warm; for sharded configs also the sharded
	// run against its sequential twin, which is the run the replay must
	// reproduce.
	cmp := tr.begin("bench.compare", -1, op)
	defer tr.end(cmp, 0)
	ctx := sim.NewContext()
	s = tr.begin("sim.cold_run", cmp, op)
	live, err := ctx.Run(cfg)
	if err != nil {
		return err
	}
	tr.end(s, int64(n))
	live = live.Clone()
	s = tr.begin("sim.warm_run", cmp, op)
	again, err := ctx.Run(cfg)
	if err != nil {
		return err
	}
	tr.end(s, int64(n))
	ls.check(reflect.DeepEqual(again, live), "%s seed %d: warm context rerun differs from the cold run",
		live.SchemeLabel, cfg.Seed)
	if cfg.Shards > 0 {
		s = tr.begin("engine.shard_run", cmp, op)
		if _, err := sim.Run(cfg); err != nil {
			return err
		}
		tr.end(s, int64(n))
		twin := cfg
		twin.Shards = 0
		s = tr.begin("engine.seq_twin", cmp, op)
		if live, err = sim.Run(twin); err != nil {
			return err
		}
		tr.end(s, int64(n))
	}
	ls.check(reflect.DeepEqual(got, live), "%s seed %d: replay of the capture differs from the live run",
		got.SchemeLabel, cfg.Seed)
	return nil
}

// probeAll probes every config, op ids starting at opBase, after one
// untraced warm-up probe of the first.
func probeAll(ls *layerStats, cfgs []sim.Config, opBase int) error {
	if err := probeCell(newLayerStats(newTracer(), io.Discard), cfgs[0], -1); err != nil {
		return fmt.Errorf("warm-up probe: %w", err)
	}
	for i, cfg := range cfgs {
		if err := probeCell(ls, cfg, opBase+i); err != nil {
			return fmt.Errorf("probe %d (%s): %w", i, cfg.Scheme.Label(cfg.Threshold), err)
		}
	}
	return nil
}
