// Package runner executes grids of simulation cells — the
// workload × scheme × threshold sweeps behind every figure of the paper's
// evaluation — on a bounded worker pool. Results come back in stable cell
// order regardless of GOMAXPROCS or scheduling, so rendered tables are
// byte-identical at any parallelism; grids honour context cancellation and
// aggregate per-cell errors instead of stopping at the first one. A
// memoizing Cache (see cache.go) deduplicates shared runs, most notably
// the KindNone baselines that every paired cell re-derives.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"catsim/internal/mitigation"
	"catsim/internal/sim"
)

// Engine runs cells with bounded parallelism and optional memoization.
// The zero value runs at GOMAXPROCS with no cache.
type Engine struct {
	// Parallel caps concurrently executing cells (0 = GOMAXPROCS,
	// 1 = strictly sequential).
	Parallel int
	// Cache memoizes sim.Run results by canonical config key; nil runs
	// every cell from scratch.
	Cache *Cache
	// Contexts, when non-nil, executes cells on pooled reusable run
	// contexts (sim.Context) that keep each worker's component stack warm
	// across cells; nil runs every cell on a fresh context (sim.Run).
	// Results are identical either way (the context-reuse identity
	// contract).
	Contexts *ContextPool
	// OnCell, when non-nil, is called after every cell completes
	// (successfully or with err set, in which case r is zero), from
	// whichever worker ran it. Callbacks sharing state must synchronise
	// themselves; completion order is scheduling-dependent.
	OnCell func(i int, r CellResult, err error)
}

// Cell is one point of an experiment grid.
type Cell struct {
	// Tag identifies the cell in error messages ("DRCAT_64/black").
	Tag string
	// Config is the run to execute.
	Config sim.Config
	// Pair additionally runs the KindNone baseline with the identical
	// request streams and reports the execution-time overhead, like
	// sim.RunPair. Baselines are shared through the cache across every
	// cell (and figure) that needs them.
	Pair bool
}

// CellResult is the measured outcome of one cell.
type CellResult struct {
	Tag      string
	Result   sim.Result
	Baseline sim.Result // zero unless Cell.Pair
	ETO      float64    // zero unless Cell.Pair
}

// Grid executes every cell and returns results in cell order. All cells
// are attempted even when some fail; the returned error joins every
// per-cell failure, each prefixed with its tag. A cancelled context stops
// dispatching new cells and surfaces the context error.
func (e *Engine) Grid(ctx context.Context, cells []Cell) ([]CellResult, error) {
	return Map(ctx, e.Parallel, len(cells), func(i int) (CellResult, error) {
		r, err := e.runCell(cells[i])
		if e.OnCell != nil {
			e.OnCell(i, r, err)
		}
		if err != nil {
			return CellResult{}, fmt.Errorf("%s: %w", cells[i].Tag, err)
		}
		return r, nil
	})
}

// baselineConfig derives the KindNone baseline run for a paired cell:
// identical streams, mitigation disabled (sim.RunPair's derivation).
func baselineConfig(cfg sim.Config) sim.Config {
	cfg.Scheme = sim.SchemeSpec{Kind: mitigation.KindNone}
	return cfg
}

// eto is the execution-time overhead of a scheme run over its baseline.
func eto(scheme, baseline sim.Result) float64 {
	if baseline.ExecNS <= 0 {
		return 0
	}
	return (scheme.ExecNS - baseline.ExecNS) / baseline.ExecNS
}

func (e *Engine) runCell(c Cell) (CellResult, error) {
	res, err := e.Run(c.Config)
	if err != nil {
		return CellResult{}, err
	}
	out := CellResult{Tag: c.Tag, Result: res}
	if c.Pair {
		baseline, err := e.Run(baselineConfig(c.Config))
		if err != nil {
			return CellResult{}, fmt.Errorf("baseline: %w", err)
		}
		out.Baseline = baseline
		out.ETO = eto(res, baseline)
	}
	return out, nil
}

// Pair runs cfg against its KindNone baseline like sim.RunPair, but as
// two engine runs that may execute concurrently (subject to Parallel) and
// through the cache. Single-run callers (cmd/catsim) use this; grid
// callers set Cell.Pair instead.
func (e *Engine) Pair(ctx context.Context, cfg sim.Config) (CellResult, error) {
	configs := []sim.Config{cfg, baselineConfig(cfg)}
	res, err := Map(ctx, e.Parallel, len(configs), func(i int) (sim.Result, error) {
		return e.Run(configs[i])
	})
	if err != nil {
		return CellResult{}, err
	}
	return CellResult{Result: res[0], Baseline: res[1], ETO: eto(res[0], res[1])}, nil
}

// Run executes one simulation through the engine's context pool and
// cache (directly when neither is configured).
func (e *Engine) Run(cfg sim.Config) (sim.Result, error) {
	run := sim.Run
	if e.Contexts != nil {
		run = e.Contexts.Run
	}
	if e.Cache == nil {
		return run(cfg)
	}
	return e.Cache.RunWith(cfg, run)
}

// Map runs fn(0..n-1) on at most `parallel` workers (0 = GOMAXPROCS) and
// returns the results in index order. Every index is attempted unless the
// context is cancelled first; errors are joined. It is the generic engine
// under Grid, exported for sweeps whose unit of work is not a sim.Config
// (e.g. the Fig. 2 stream replays and the ablation variants).
func Map[T any](ctx context.Context, parallel, n int, fn func(i int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]T, n)
	errs := make([]error, n)
	workers := parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Sequential reference path: identical semantics, no goroutines.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				break
			}
			out[i], errs[i] = fn(i)
		}
		return out, errors.Join(errs...)
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			errs[i] = ctx.Err()
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return out, errors.Join(errs...)
}
