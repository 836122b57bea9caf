package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const baseJSON = `[
  {"name": "BenchmarkA", "iterations": 10, "ns_per_op": 1000, "date": "2026-01-01T00:00:00Z"},
  {"name": "BenchmarkB", "iterations": 10, "ns_per_op": 2000, "faultcycles/s": 50000000, "bytes_per_op": 64, "allocs_per_op": 100, "date": "2026-01-01T00:00:00Z"},
  {"name": "BenchmarkGone", "iterations": 1, "ns_per_op": 5, "date": "2026-01-01T00:00:00Z"}
]`

const curJSON = `[
  {"name": "BenchmarkA-4", "iterations": 10, "ns_per_op": 1200, "date": "2026-02-01T00:00:00Z"},
  {"name": "BenchmarkB", "iterations": 10, "ns_per_op": 1900, "faultcycles/s": 80000000, "bytes_per_op": 64, "allocs_per_op": 30, "date": "2026-02-01T00:00:00Z"},
  {"name": "BenchmarkNew", "iterations": 1, "ns_per_op": 7, "date": "2026-02-01T00:00:00Z"}
]`

func parseBoth(t *testing.T) (base, cur map[string]entry) {
	t.Helper()
	base, err := parseSummary([]byte(baseJSON))
	if err != nil {
		t.Fatal(err)
	}
	cur, err = parseSummary([]byte(curJSON))
	if err != nil {
		t.Fatal(err)
	}
	return base, cur
}

func TestParseSummary(t *testing.T) {
	base, cur := parseBoth(t)
	if len(base) != 3 {
		t.Fatalf("parsed %d entries, want 3", len(base))
	}
	// Multi-core summaries carry a -GOMAXPROCS suffix; names normalize so
	// they compare against single-core baselines.
	if _, ok := cur["BenchmarkA"]; !ok {
		t.Error("BenchmarkA-4 not normalized to BenchmarkA")
	}
	b := base["BenchmarkB"]
	if b.NsPerOp != 2000 {
		t.Errorf("BenchmarkB ns/op = %v", b.NsPerOp)
	}
	if b.Rates["faultcycles/s"] != 50000000 {
		t.Errorf("BenchmarkB rate = %v", b.Rates["faultcycles/s"])
	}
	if b.BytesPerOp != 64 || b.AllocsPerOp != 100 {
		t.Errorf("BenchmarkB B/op = %v, allocs/op = %v, want 64, 100", b.BytesPerOp, b.AllocsPerOp)
	}
	// bytes_per_op must not be mistaken for a rate.
	if _, ok := b.Rates["bytes_per_op"]; ok {
		t.Error("bytes_per_op misparsed as a rate")
	}
	// bench.sh records every custom metric of a row; only the …/s ones
	// are rates.
	seq, err := parseSummary([]byte(`[{"name": "BenchmarkFaultSimSeqLarge-2", "iterations": 1,
		"ns_per_op": 390346824, "%stepped": 99.40, "evals/step": 393.0, "faultcycles/s": 17630786,
		"bytes_per_op": 38416112, "allocs_per_op": 44949, "date": "2026-01-01T00:00:00Z"}]`))
	if err != nil {
		t.Fatal(err)
	}
	large := seq["BenchmarkFaultSimSeqLarge"]
	if len(large.Rates) != 1 || large.Rates["faultcycles/s"] != 17630786 {
		t.Errorf("FaultSimSeqLarge rates = %v, want faultcycles/s only", large.Rates)
	}
	for _, k := range []string{"%stepped", "evals/step"} {
		if _, ok := large.Rates[k]; ok {
			t.Errorf("%s misparsed as a rate", k)
		}
	}
}

func TestParseSummaryRejectsGarbage(t *testing.T) {
	if _, err := parseSummary([]byte(`{"not": "an array"}`)); err == nil {
		t.Error("non-array accepted")
	}
	if _, err := parseSummary([]byte(`[{"iterations": 3}]`)); err == nil {
		t.Error("nameless row accepted")
	}
}

func TestCompareFlagsRegressionsAndImprovements(t *testing.T) {
	base, cur := parseBoth(t)
	deltas := compare(base, cur, 0.10)
	// Expected: A ns/op +20% (regression), B allocs/op -70% and
	// faultcycles/s +60% (improvements). B ns/op -5% is under threshold,
	// B B/op is unchanged.
	if len(deltas) != 3 {
		t.Fatalf("got %d deltas: %v", len(deltas), deltas)
	}
	// Regressions sort first, then bench name, then metric.
	if d := deltas[0]; !d.Worse || d.Bench != "BenchmarkA" || d.Metric != "ns/op" {
		t.Errorf("first delta = %+v, want BenchmarkA ns/op regression", d)
	}
	if d := deltas[1]; d.Worse || d.Bench != "BenchmarkB" || d.Metric != "allocs/op" {
		t.Errorf("second delta = %+v, want BenchmarkB allocs/op improvement", d)
	}
	if d := deltas[2]; d.Worse || d.Bench != "BenchmarkB" || d.Metric != "faultcycles/s" {
		t.Errorf("third delta = %+v, want BenchmarkB rate improvement", d)
	}
}

func TestCompareAllocDirectionality(t *testing.T) {
	// Allocation growth is a regression (lower is better), and rows
	// without allocation data (older summaries) are skipped, not treated
	// as zero baselines.
	base := map[string]entry{
		"Bench":    {NsPerOp: 1000, BytesPerOp: 1 << 20, AllocsPerOp: 100},
		"NoAllocs": {NsPerOp: 500},
	}
	cur := map[string]entry{
		"Bench":    {NsPerOp: 1000, BytesPerOp: 2 << 20, AllocsPerOp: 1000},
		"NoAllocs": {NsPerOp: 500, BytesPerOp: 64, AllocsPerOp: 2},
	}
	deltas := compare(base, cur, 0.10)
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas: %v", len(deltas), deltas)
	}
	for _, d := range deltas {
		if !d.Worse || d.Bench != "Bench" {
			t.Errorf("delta = %+v, want a Bench allocation regression", d)
		}
	}
}

func TestCompareDirectionality(t *testing.T) {
	base := map[string]entry{
		"Bench": {NsPerOp: 1000, Rates: map[string]float64{"x/s": 1000}},
	}
	// A rate DROP is a regression even as ns/op holds.
	cur := map[string]entry{
		"Bench": {NsPerOp: 1000, Rates: map[string]float64{"x/s": 500}},
	}
	deltas := compare(base, cur, 0.10)
	if len(deltas) != 1 || !deltas[0].Worse {
		t.Fatalf("rate drop not flagged as regression: %v", deltas)
	}
	// Exactly at the threshold: not flagged (strict inequality). The
	// values are binary-exact so the ratio is too.
	base = map[string]entry{"Bench": {NsPerOp: 1024}}
	cur = map[string]entry{"Bench": {NsPerOp: 1152}}
	if deltas := compare(base, cur, 0.125); len(deltas) != 0 {
		t.Fatalf("exact-threshold change flagged: %v", deltas)
	}
}

func TestMissing(t *testing.T) {
	base, cur := parseBoth(t)
	gone, added := missing(base, cur)
	if len(gone) != 1 || gone[0] != "BenchmarkGone" {
		t.Errorf("gone = %v", gone)
	}
	if len(added) != 1 || added[0] != "BenchmarkNew" {
		t.Errorf("added = %v", added)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	curPath := filepath.Join(dir, "cur.json")
	if err := os.WriteFile(basePath, []byte(baseJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(curPath, []byte(curJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	regressions, err := run(basePath, curPath, 0.10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 1 {
		t.Errorf("regressions = %d, want 1", regressions)
	}
	// A generous threshold reports a clean trajectory.
	regressions, err = run(basePath, curPath, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Errorf("regressions at 50%% threshold = %d, want 0", regressions)
	}
	// -only restricted to BenchmarkB drops BenchmarkA's regression from
	// the comparison entirely.
	regressions, err = run(basePath, curPath, 0.10, regexp.MustCompile(`^BenchmarkB$`))
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Errorf("regressions under -only BenchmarkB = %d, want 0", regressions)
	}
	if _, err := run(filepath.Join(dir, "absent.json"), curPath, 0.1, nil); err == nil {
		t.Error("missing baseline accepted")
	}
}

func TestFilterBenches(t *testing.T) {
	base, _ := parseBoth(t)
	got := filterBenches(base, regexp.MustCompile(`^Benchmark[AB]$`))
	if len(got) != 2 {
		t.Fatalf("filtered to %d entries, want 2: %v", len(got), got)
	}
	if same := filterBenches(base, nil); len(same) != len(base) {
		t.Errorf("nil filter dropped entries: %d vs %d", len(same), len(base))
	}
}

func TestGateExit(t *testing.T) {
	cases := []struct {
		strict      bool
		regressions int
		want        int
	}{
		{false, 0, 0},
		{false, 3, 0}, // report mode never gates
		{true, 0, 0},
		{true, 1, 1},
	}
	for _, c := range cases {
		if got := gateExit(c.strict, c.regressions); got != c.want {
			t.Errorf("gateExit(strict=%v, regressions=%d) = %d, want %d", c.strict, c.regressions, got, c.want)
		}
	}
}

// TestMainExitStatus runs the real main (re-execing the test binary)
// against a summary pair with one regression: report mode must exit 0,
// -strict must exit 1.
func TestMainExitStatus(t *testing.T) {
	if os.Getenv("BENCHCMP_TEST_MAIN") == "1" {
		os.Args = strings.Split(os.Getenv("BENCHCMP_TEST_ARGS"), "\x1f")
		main()
		os.Exit(0)
	}
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	curPath := filepath.Join(dir, "cur.json")
	if err := os.WriteFile(basePath, []byte(baseJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(curPath, []byte(curJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	exitOf := func(args ...string) int {
		cmd := exec.Command(os.Args[0], "-test.run=TestMainExitStatus$")
		cmd.Env = append(os.Environ(),
			"BENCHCMP_TEST_MAIN=1",
			"BENCHCMP_TEST_ARGS=benchcmp\x1f"+strings.Join(args, "\x1f"))
		err := cmd.Run()
		if err == nil {
			return 0
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		t.Fatalf("re-exec failed: %v", err)
		return -1
	}
	if code := exitOf(basePath, curPath); code != 0 {
		t.Errorf("report mode exited %d, want 0", code)
	}
	if code := exitOf("-strict", basePath, curPath); code != 1 {
		t.Errorf("-strict with a regression exited %d, want 1", code)
	}
	if code := exitOf("-strict", "-threshold", "0.5", basePath, curPath); code != 0 {
		t.Errorf("-strict with no regression exited %d, want 0", code)
	}
}
