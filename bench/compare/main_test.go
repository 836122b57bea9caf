package main

import (
	"strings"
	"testing"
)

var lower = metricSpec{Name: "pass_ms", Unit: "ms", Better: "lower", Bound: 0.10}

// pairs builds samples from parallel slices.
func pairs(parent, change []float64) []sample {
	var out []sample
	for i := range parent {
		out = append(out, sample{parent[i], change[i]})
	}
	return out
}

var steady = []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}

func TestJudgeTiesAreSame(t *testing.T) {
	r := judge(pairs(steady, steady), lower)
	if r.wins != 0 || r.verdict != "same" {
		t.Fatalf("identical runs: wins %d verdict %q, want 0 and same", r.wins, r.verdict)
	}
}

func TestJudgeImprovement(t *testing.T) {
	change := make([]float64, len(steady))
	for i, v := range steady {
		change[i] = v * 0.9
	}
	r := judge(pairs(steady, change), lower)
	if r.wins != 10 || r.verdict != "gain" {
		t.Fatalf("10%% faster in every pair: wins %d verdict %q, want 10 and gain", r.wins, r.verdict)
	}
	// One lost pair of ten still meets 9/10; two do not.
	change[0] = steady[0] + 1
	if r := judge(pairs(steady, change), lower); r.verdict != "gain" {
		t.Fatalf("9/10 wins: verdict %q, want gain", r.verdict)
	}
	change[1] = steady[1] + 1
	if r := judge(pairs(steady, change), lower); r.verdict != "same" {
		t.Fatalf("8/10 wins: verdict %q, want same", r.verdict)
	}
}

func TestJudgeGainNeedsTenPairs(t *testing.T) {
	// Winning every pair is not a gain on fewer than ten pairs.
	for n := 1; n < minPairs; n++ {
		parent, change := steady[:n], make([]float64, n)
		for i, v := range parent {
			change[i] = v * 0.5
		}
		if r := judge(pairs(parent, change), lower); r.verdict == "gain" {
			t.Fatalf("%d pairs, all won by half: verdict gain, want not gain", n)
		}
	}
}

func TestJudgeGainNeedsMoreThanParentIQR(t *testing.T) {
	// The change wins every pair, but by less than the parent's spread.
	change := make([]float64, len(steady))
	for i, v := range steady {
		change[i] = v - 0.5
	}
	if r := judge(pairs(steady, change), lower); r.verdict != "same" {
		t.Fatalf("win within the parent's IQR: verdict %q, want same", r.verdict)
	}
}

func TestJudgeRegression(t *testing.T) {
	change := make([]float64, len(steady))
	for i, v := range steady {
		change[i] = v * 1.2
	}
	if r := judge(pairs(steady, change), lower); r.verdict != "regression" {
		t.Fatalf("20%% slower against a 10%% bound: verdict %q, want regression", r.verdict)
	}
	// Direction matters: for a higher-is-better metric the same numbers
	// are a gain.
	higher := metricSpec{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	if r := judge(pairs(steady, change), higher); r.verdict != "gain" {
		t.Fatalf("20%% more throughput: verdict %q, want gain", r.verdict)
	}
}

func TestJudgeUnresolved(t *testing.T) {
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if r := judge(pairs(noisy, noisy), lower); r.verdict != "unresolved" {
		t.Fatalf("spread wider than the bound: verdict %q, want unresolved", r.verdict)
	}
	// Unless every change run beats every parent run.
	fast := make([]float64, len(noisy))
	for i := range fast {
		fast[i] = 10 + float64(i)
	}
	if r := judge(pairs(noisy, fast), lower); r.verdict != "gain" {
		t.Fatalf("noisy parent, change better in every run: verdict %q, want gain", r.verdict)
	}
}

func TestReadBenchmark(t *testing.T) {
	b, err := readBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) == 0 || len(b.EndToEnd) == 0 {
		t.Fatalf("BENCHMARK.json read as %+v: no workloads or end-to-end metrics", b)
	}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v: want a positive bound and better lower or higher", m)
		}
	}
}

func TestCompareRunsFailureShare(t *testing.T) {
	res := func(failed int, v float64) result {
		r := result{Correct: failed == 0, Attempted: 100, Failed: failed}
		r.Metrics = map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{"pass_ms": {Value: v, Unit: "ms"}}
		return r
	}
	var runs []run
	for i := 0; i < 10; i++ {
		runs = append(runs,
			run{Side: "parent", Pair: i, Workload: "w", Result: res(0, 100)},
			run{Side: "change", Pair: i, Workload: "w", Result: res(1, 50)})
	}
	rows, bad := compareRuns(runs, []metricSpec{lower})
	if !bad {
		t.Fatal("more failures on the change side must fail the report")
	}
	var got []string
	for _, r := range rows {
		got = append(got, r.metric+"="+r.verdict)
	}
	want := "pass_ms=same (more failures),failed_frac=regression"
	if strings.Join(got, ",") != want {
		t.Fatalf("rows %v, want %s", got, want)
	}
}
