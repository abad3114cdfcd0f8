package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"catsim/internal/sim"
)

// End-to-end measurement: every workload repeats a fixed unit of work
// (a pass) until the measured phase has lasted -seconds and, outside
// smoke runs, has at least minOps ops, so both percentiles keep at least
// ten samples beyond them. Times are medians over passes; latencies are
// percentiles over every op of every measured pass.

// minOps keeps ten samples beyond the 90th percentile.
const minOps = 100

// setupReps is how many times each workload repeats its set-up.
const setupReps = 15

// measurement accumulates one end-to-end run.
type measurement struct {
	log       io.Writer
	setups    []float64 // seconds per set-up repetition
	passWall  []float64 // seconds per measured pass
	passCPU   []float64 // process CPU seconds per measured pass
	passRSS   []float64 // peak resident MiB sampled during each measured pass
	passMreq  []float64 // simulated Mreq per host second of each measured pass
	opMS      []float64 // latency of every measured op
	simReqs   int64     // simulated DRAM requests of the next or running pass
	attempted int
	bad       map[int]string // failed op -> first reason
}

func newMeasurement(log io.Writer) *measurement {
	return &measurement{log: log, bad: map[int]string{}}
}

// fail marks op as failed (once) and logs the first few reasons.
func (m *measurement) fail(op int, format string, args ...any) {
	if _, dup := m.bad[op]; dup {
		return
	}
	msg := fmt.Sprintf(format, args...)
	m.bad[op] = msg
	if len(m.bad) <= 5 {
		fmt.Fprintf(m.log, "op %d failed: %s\n", op, msg)
	}
}

func (m *measurement) failedOps() int { return len(m.bad) }

// enough reports whether the measured phase may stop.
func (m *measurement) enough(o *options, start time.Time) bool {
	if o.smoke {
		return len(m.passWall) >= 1
	}
	return time.Since(start).Seconds() >= o.seconds && len(m.opMS) >= minOps
}

// metrics returns the end-to-end metrics in BENCHMARK.json order.
func (m *measurement) metrics() []metric {
	okFrac := 0.0
	if m.attempted > 0 {
		okFrac = float64(m.attempted-len(m.bad)) / float64(m.attempted)
	}
	return []metric{
		{"wall_s", median(m.passWall), "s"},
		{"cpu_s", median(m.passCPU), "s"},
		{"setup_s", median(m.setups), "s"},
		{"peak_rss_mb", median(m.passRSS), "MB"},
		{"sim_mreq_per_s", median(m.passMreq), "Mreq/s"},
		{"op_p50_ms", quantile(m.opMS, 0.50), "ms"},
		{"op_p90_ms", quantile(m.opMS, 0.90), "ms"},
		{"ok_frac", okFrac, "ratio"},
	}
}

// pass times one unit of work in wall and process CPU seconds, samples
// its peak resident set, and turns the simulated requests added to
// m.simReqs since the last pass into the pass's throughput. Every pass
// starts from a collected heap whose free memory went back to the OS, so
// no pass pays for an earlier one's garbage or inherits its resident
// pages.
func (m *measurement) pass(fn func() error) error {
	debug.FreeOSMemory()
	rss := startRSSPeak()
	c0, t0 := cpuSeconds(), time.Now()
	err := fn()
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
	peak := rss.end()
	if err != nil {
		return err
	}
	m.passWall = append(m.passWall, wall)
	m.passCPU = append(m.passCPU, cpu)
	m.passRSS = append(m.passRSS, peak)
	m.passMreq = append(m.passMreq, float64(m.simReqs)/wall/1e6)
	m.simReqs = 0
	fmt.Fprintf(m.log, "pass %d: %.4f s wall, %.4f s cpu, %.1f MB peak resident\n",
		len(m.passWall)-1, wall, cpu, peak)
	return nil
}

// rssPeak samples the resident set every rssEvery until end.
type rssPeak struct {
	stop chan struct{}
	peak chan float64
}

const rssEvery = 5 * time.Millisecond

func startRSSPeak() *rssPeak {
	p := &rssPeak{stop: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		peak := residentMB()
		for {
			select {
			case <-p.stop:
				p.peak <- max(peak, residentMB())
				return
			case <-t.C:
				peak = max(peak, residentMB())
			}
		}
	}()
	return p
}

// end stops the sampler and returns the peak it saw, in MiB.
func (p *rssPeak) end() float64 {
	close(p.stop)
	return <-p.peak
}

// timeSetup repeats the set-up setupReps times, recording each
// repetition's time: the sum of the set-up times its steps report. Every
// step starts cold, from a collected heap whose free memory went back to
// the OS, so none pays for the garbage of the one before, each pays for
// the pages it touches, and the peak heap holds one step's allocations at
// a time.
func (m *measurement) timeSetup(steps ...func() (time.Duration, error)) error {
	for i := 0; i < setupReps; i++ {
		var d time.Duration
		for _, step := range steps {
			debug.FreeOSMemory()
			sd, err := step()
			if err != nil {
				return err
			}
			d += sd
		}
		m.setups = append(m.setups, d.Seconds())
	}
	return nil
}

// contextBuilds returns one set-up step per config: the cost of building
// a sim.Context for its shape. It is the first run on a fresh context
// minus a rerun on the then-warm one, both cut to one request per core:
// the rerun repeats the first run's simulation work, and cutting the
// requests keeps that work, and its noise, out of the difference.
func contextBuilds(cfgs []sim.Config) []func() (time.Duration, error) {
	steps := make([]func() (time.Duration, error), len(cfgs))
	for i, cfg := range cfgs {
		cfg.RequestsPerCore = 1
		steps[i] = func() (time.Duration, error) {
			ctx := sim.NewContext()
			t0 := time.Now()
			if _, err := ctx.Run(cfg); err != nil {
				return 0, err
			}
			cold, t1 := time.Since(t0), time.Now()
			if _, err := ctx.Run(cfg); err != nil {
				return 0, err
			}
			return cold - time.Since(t1), nil
		}
	}
	return steps
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// residentMB is the process's resident set now, in MiB, from the second
// field of /proc/self/statm (resident pages).
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return math.NaN()
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return math.NaN()
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return math.NaN()
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// mix derives a nonzero 64-bit stream seed from the workload seed and a
// stream index (splitmix64 finalizer), so every generated input follows
// from -seed alone.
func mix(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + i + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// runtimeCPUs is the worker count for parallel layers: GOMAXPROCS, which
// run pins to the CPU count.
func runtimeCPUs() int { return runtime.GOMAXPROCS(0) }
