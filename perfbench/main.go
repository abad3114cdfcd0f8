// Command perfbench is catsim's end-to-end benchmark. One invocation runs
// one named workload against the public entry points of the simulator's
// layers, from outside the program, checks every output it gets, and
// prints each metric by name with its unit. The last line of standard
// output is a JSON summary:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 2.2, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 a
// separate traced run records spans around each layer's entry points and
// reports the per-layer metrics instead; it writes the spans and a
// per-layer self-time table to .bench_build/perfbench/. Tracing is never
// on during an end-to-end run.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
//
// README.md beside this file describes the workloads, why each exists,
// the checks, and which end-to-end metric each layer metric should move;
// BENCHMARK.json at the repository root lists the metrics and bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// defaultSeed is the seed the paper-grid digests were recorded at.
const defaultSeed = 1

// options is one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	outDir   string
	// smoke shrinks every workload to a handful of ops (the benchmark's
	// own tests); percentiles then have fewer than ten samples beyond them.
	smoke bool
	// corrupt, when non-nil, reports the ops whose output the workload
	// deliberately damages before checking it (the benchmark's own tests).
	corrupt func(op int) bool
}

func (o *options) corrupted(op int) bool { return o.corrupt != nil && o.corrupt(op) }

// workloadDef is one named workload: an end-to-end run and a traced run.
type workloadDef struct {
	measure func(o *options, m *measurement) error
	traced  func(o *options, ls *layerStats) error
}

var workloads = map[string]workloadDef{
	"paper-grid": {measure: measurePaperGrid, traced: tracePaperGrid},
	"seed-sweep": {measure: measureSeedSweep, traced: traceSeedSweep},
	"serve-jobs": {measure: measureServeJobs, traced: traceServeJobs},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// summary is the JSON object on the last line of standard output.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int { return runWith(nil, args, stdout, stderr) }

// runWith is run with preset options (the benchmark's own tests set
// smoke and the corruption hook); flags fill in the rest.
func runWith(o *options, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if o == nil {
		o = &options{}
	}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed: every generated input derives from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end run")
	fs.StringVar(&o.outDir, "out", ".bench_build/perfbench", "directory for the traced run's span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok || fs.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -trace 0|1 and positive -seconds\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	// The load comes from this one process and uses every CPU it may run on.
	runtime.GOMAXPROCS(runtime.NumCPU())

	var (
		metrics []metric
		att     int
		failed  int
	)
	if *traceFlag == 1 {
		ls := newLayerStats(newTracer(), stderr)
		if err := w.traced(o, ls); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced run: %v\n", o.workload, err)
			return 1
		}
		ls.finish()
		path, err := ls.tr.write(o, ls)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans and self-time table written to %s\n", path)
		printSelfTable(stderr, ls.selfTable)
		metrics, att, failed = ls.metrics(), ls.attempted, ls.failed
	} else {
		m := newMeasurement(stderr)
		if err := w.measure(o, m); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
			return 1
		}
		metrics, att, failed = m.metrics(), m.attempted, m.failedOps()
	}
	if att < 1 {
		fmt.Fprintf(stderr, "perfbench: %s attempted no ops\n", o.workload)
		return 1
	}

	out := summary{Correct: failed == 0, Attempted: att, Failed: failed, Metrics: map[string]summaryMetric{}}
	for _, mt := range metrics {
		fmt.Fprintf(stderr, "%-28s %16.6f %s\n", mt.name, mt.value, mt.unit)
		out.Metrics[mt.name] = summaryMetric{Value: mt.value, Unit: mt.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// errNoOps reports a measured phase that completed no op.
var errNoOps = errors.New("measured phase completed no ops")
