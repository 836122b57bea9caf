// Command compare judges a change against its parent commit with the
// benchmark, from paired runs.
//
// It has two modes. The first runs the benchmark in two checkouts in
// alternating pairs and appends one JSON line per run to a file:
//
//	go run ./compare run [-benchmark ../BENCHMARK.json] -parent DIR -change DIR -out runs.jsonl
//
// Every workload of BENCHMARK.json runs in 10 pairs, for run_seconds
// each, with the benchmark's command. Pair i runs seed i+1 on both
// sides, the parent first in even pairs and the change first in odd
// ones. The second mode reads such files
// and prints one row per (metric, workload):
//
//	go run ./compare report [-benchmark ../BENCHMARK.json] runs.jsonl...
//
// Each row gives both sides' median and quartiles, the pairs the change
// won, and a verdict:
//
//   - gain: at least 10 pairs ran, the change wins at least 9 in 10 of
//     them (ties count for neither) and the medians differ by more than
//     the parent's interquartile range;
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: either side's interquartile range exceeds the bound,
//     unless every change run reads better than every parent run;
//   - same: none of these.
//
// A separate row per workload compares the share of failed ops, and a
// gain does not count on a workload where the change failed more.
// report exits 1 when any row is a regression, or when a run was not
// correct.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"

	"repro/bench/stats"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: compare run|report [flags]")
		os.Exit(2)
	}
	var err error
	code := 0
	switch os.Args[1] {
	case "run":
		err = runPairs(os.Args[2:])
	case "report":
		code, err = report(os.Args[2:], os.Stdout)
	default:
		err = fmt.Errorf("unknown mode %q: want run or report", os.Args[1])
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// run is one line of a runs file.
type run struct {
	Side     string `json:"side"` // "parent" or "change"
	Pair     int    `json:"pair"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// minPairs is how many alternating pairs run per workload, and the
// fewest a gain may rest on.
const minPairs = 10

func runPairs(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "../BENCHMARK.json", "BENCHMARK.json with the command, workloads and run length")
	parent := fs.String("parent", "", "checkout of the parent commit")
	change := fs.String("change", "", "checkout of the change")
	out := fs.String("out", "", "append the runs to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parent == "" || *change == "" || *out == "" {
		return fmt.Errorf("run needs -parent, -change and -out")
	}
	bench, err := readBenchmark(*benchPath)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(*out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, w := range bench.Workloads {
		for i := 0; i < minPairs; i++ {
			order := []string{"parent", "change"}
			if i%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			seed := int64(i + 1)
			for _, side := range order {
				dir := *parent
				if side == "change" {
					dir = *change
				}
				res, err := benchOnce(dir, bench, w.Name, seed)
				if err != nil {
					return fmt.Errorf("%s %s pair %d: %w", side, w.Name, i, err)
				}
				if err := enc.Encode(run{side, i, w.Name, seed, *res}); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "%s pair %d %s done\n", w.Name, i, side)
			}
		}
	}
	return f.Close()
}

// benchOnce runs the benchmark's command once in a checkout and parses
// its result.
func benchOnce(dir string, bench *benchmark, workload string, seed int64) (*result, error) {
	args := append([]string(nil), bench.Command[1:]...)
	args = append(args, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(bench.RunSeconds), "--trace", "0")
	cmd := exec.Command(bench.Command[0], args...)
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	res := new(result)
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("parsing the result line: %w", err)
	}
	return res, nil
}

// benchmark is the part of BENCHMARK.json compare reads.
type benchmark struct {
	Command    []string                `json:"command"`
	RunSeconds int                     `json:"run_seconds"`
	Workloads  []struct{ Name string } `json:"workloads"`
	EndToEnd   []metricSpec            `json:"end_to_end"`
}

func readBenchmark(path string) (*benchmark, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	bench := new(benchmark)
	if err := json.Unmarshal(b, bench); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bench.Command) == 0 || bench.RunSeconds < 1 {
		return nil, fmt.Errorf("%s: no command or run_seconds", path)
	}
	return bench, nil
}

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func report(args []string, w io.Writer) (int, error) {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "../BENCHMARK.json", "BENCHMARK.json with the metrics' directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	bench, err := readBenchmark(*benchPath)
	if err != nil {
		return 0, err
	}
	var runs []run
	for _, path := range fs.Args() {
		rs, err := readRuns(path)
		if err != nil {
			return 0, err
		}
		runs = append(runs, rs...)
	}
	rows, bad := compareRuns(runs, bench.EndToEnd)
	printRows(w, rows)
	if bad {
		return 1, nil
	}
	return 0, nil
}

func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []run
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// row is one line of the report.
type row struct {
	workload, metric string
	parent, change   summary
	wins, pairs      int
	verdict          string
}

type summary struct{ q1, median, q3 float64 }

func summarize(xs []float64) summary {
	q1, m, q3 := stats.Quartiles(xs)
	return summary{q1, m, q3}
}

// sample is one pair's values.
type sample struct{ parent, change float64 }

// compareRuns builds the report rows and says whether any row is a
// regression or any run incorrect.
func compareRuns(runs []run, specs []metricSpec) ([]row, bool) {
	type key struct {
		workload string
		pair     int
	}
	bySide := map[string]map[key]result{"parent": {}, "change": {}}
	workloads := map[string]bool{}
	bad := false
	for _, r := range runs {
		if bySide[r.Side] == nil {
			continue
		}
		bySide[r.Side][key{r.Workload, r.Pair}] = r.Result
		workloads[r.Workload] = true
		if !r.Result.Correct {
			bad = true
		}
	}
	var wl []string
	for w := range workloads {
		wl = append(wl, w)
	}
	sort.Strings(wl)

	var rows []row
	for _, w := range wl {
		var keys []key
		for k := range bySide["parent"] {
			if _, ok := bySide["change"][k]; ok && k.workload == w {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].pair < keys[j].pair })
		var failP, attP, failC, attC int
		for _, k := range keys {
			p, c := bySide["parent"][k], bySide["change"][k]
			failP, attP = failP+p.Failed, attP+p.Attempted
			failC, attC = failC+c.Failed, attC+c.Attempted
		}
		failRow := row{workload: w, metric: "failed_frac", pairs: len(keys),
			parent:  summary{median: share(failP, attP)},
			change:  summary{median: share(failC, attC)},
			verdict: "same"}
		if share(failC, attC) > share(failP, attP) {
			failRow.verdict = "regression"
			bad = true
		}
		for _, spec := range specs {
			var ss []sample
			for _, k := range keys {
				p, okP := bySide["parent"][k].Metrics[spec.Name]
				c, okC := bySide["change"][k].Metrics[spec.Name]
				if okP && okC {
					ss = append(ss, sample{p.Value, c.Value})
				}
			}
			if len(ss) == 0 {
				continue
			}
			r := judge(ss, spec)
			r.workload, r.metric = w, spec.Name
			if r.verdict == "gain" && failRow.verdict == "regression" {
				r.verdict = "same (more failures)"
			}
			if r.verdict == "regression" {
				bad = true
			}
			rows = append(rows, r)
		}
		rows = append(rows, failRow)
	}
	return rows, bad
}

func share(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// judge applies the paired rule to one metric on one workload.
func judge(ss []sample, spec metricSpec) row {
	var ps, cs []float64
	for _, s := range ss {
		ps = append(ps, s.parent)
		cs = append(cs, s.change)
	}
	r := row{parent: summarize(ps), change: summarize(cs), pairs: len(ss)}
	// better(a, b) reports whether a reads better than b.
	better := func(a, b float64) bool {
		if spec.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for _, s := range ss {
		if better(s.change, s.parent) {
			r.wins++
		}
	}
	mp, mc := r.parent.median, r.change.median
	worse := (mc - mp) / mp
	if spec.Better == "higher" {
		worse = (mp - mc) / mp
	}
	spread := func(s summary) float64 { return (s.q3 - s.q1) / s.median }
	allBetter := true
	for _, c := range cs {
		for _, p := range ps {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case worse > spec.Bound:
		r.verdict = "regression"
	case (spread(r.parent) > spec.Bound || spread(r.change) > spec.Bound) && !allBetter:
		r.verdict = "unresolved"
	case r.pairs >= minPairs && 10*r.wins >= 9*r.pairs && better(mc, mp) && abs(mc-mp) > r.parent.q3-r.parent.q1:
		r.verdict = "gain"
	default:
		r.verdict = "same"
	}
	return r
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-14s %-14s %-34s %-34s %7s  %s\n", "workload", "metric",
		"parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-14s %-34s %-34s %3d/%-3d  %s\n", r.workload, r.metric,
			fmtSummary(r.parent), fmtSummary(r.change), r.wins, r.pairs, r.verdict)
	}
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.median, s.q1, s.q3)
}
