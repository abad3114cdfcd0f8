package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec reads the metric names and units BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, benchmark has %s", got, want)
	}
	return endToEnd, perLayer
}

// smokeRun runs one tiny invocation and decodes its summary line.
func smokeRun(t *testing.T, o *options, args ...string) summary {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if o == nil {
		o = &options{}
	}
	o.smoke = true
	args = append(args, "-seconds", "1", "-out", t.TempDir())
	if code := runWith(o, args, &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line of standard output is not the summary: %v\n%s", err, stdout.String())
	}
	return s
}

func TestSmokePrintsEveryMetric(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	for _, w := range workloadNames() {
		for trace, want := range []map[string]string{endToEnd, perLayer} {
			s := smokeRun(t, nil, "-workload", w, "-trace", []string{"0", "1"}[trace])
			if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w, trace, s.Correct, s.Attempted, s.Failed)
			}
			if len(s.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json declares %d", w, trace, len(s.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := s.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w, trace, name, got, unit)
				}
			}
		}
	}
}

func TestCorruptedResultCountsAsFailedOp(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			o := &options{corrupt: func(op int) bool { return op == 0 }}
			s := smokeRun(t, o, "-workload", w, "-trace", trace)
			if s.Correct || s.Failed != 1 {
				t.Errorf("%s trace=%s: a corrupted op gave correct=%v failed=%d, want false and 1",
					w, trace, s.Correct, s.Failed)
			}
			if trace == "0" && s.Metrics["ok_frac"].Value >= 1 {
				t.Errorf("%s: ok_frac %v with a failed op", w, s.Metrics["ok_frac"].Value)
			}
		}
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nosuch"},
		{"-workload", "seed-sweep", "-trace", "2"},
		{"-workload", "seed-sweep", "-seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("perfbench %v: exit %d, stdout %q; want 2 and no summary", args, code, stdout.String())
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}
