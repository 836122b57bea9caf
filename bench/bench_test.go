package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the set-up probe that run
// starts, as the benchmark's own binary does.
func TestMain(m *testing.M) {
	if v := os.Getenv(probeEnv); v != "" {
		os.Exit(setupProbe(v))
	}
	os.Exit(m.Run())
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayerNames []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayerNames = append(perLayerNames, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayerNames)
	return endToEnd, perLayerNames
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload at its minimum size, untraced and then
// traced, and checks the outputs against the recorded digests and the
// metrics against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	e2eNames, layerNames := benchmarkMetrics(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, err := run(w, config{seed: 1, trace: true, smoke: true, dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range out.records() {
				if r.failed != 0 {
					t.Errorf("%d of %d ops failed: %v", r.failed, r.attempted, r.errs)
				}
			}
			if out.golden == "" {
				t.Errorf("no smoke digest recorded for seed 1; this run's is %s", out.untraced.digest)
			}
			if !out.correct() {
				t.Errorf("outputs not correct: digests %s (untraced), %s (traced), golden %s",
					out.untraced.digest, out.traced.digest, out.golden)
			}
			e2e := endToEnd(out)
			if got := keys(e2e); strings.Join(got, ",") != strings.Join(e2eNames, ",") {
				t.Errorf("end-to-end metrics %v, want %v", got, e2eNames)
			}
			for k, m := range e2e {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", k, m.Value)
				}
			}
			var buf bytes.Buffer
			report(&buf, w, out)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
			}
			if got := keys(res.Metrics); strings.Join(got, ",") != strings.Join(layerNames, ",") {
				t.Errorf("traced result metrics %v, want the per-layer metrics %v", got, layerNames)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("result line %+v", res)
			}
			for _, name := range e2eNames {
				if !strings.Contains(buf.String(), "  "+name+" ") {
					t.Errorf("report does not print %s", name)
				}
			}
		})
	}
}
