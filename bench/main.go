// Command bench is the repository benchmark. It runs one of four
// workloads — the paper's Table 1/2 flow, the ATPG top-off experiments,
// the campaign service behind a loopback HTTP server, and fault
// simulation of large random netlists — for a fixed time, checks every
// output against golden digests, and prints each end-to-end metric by
// name with its unit and sample count. With -trace 1 it spends the
// second half of the run with a span around every public call it makes
// into the program and prints the per-layer metrics instead.
//
// Usage (from the bench directory; bench/run.sh does the same from the
// repository root):
//
//	go run . -workload <name|all> [-seed N] [-seconds S] [-trace 0|1] [-spans FILE]
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
//
// With -workload all each workload runs in its own process, one after
// another, and their outputs are printed in turn.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// procs is the GOMAXPROCS every workload runs at, so that runs on hosts
// with more cores stay comparable with the calibration.
const procs = 2

// setupRuns is how many fresh processes a run starts to time its
// workload's set-up; setup_s is their median.
const setupRuns = 51

// probeEnv, when set in the environment, makes the process a set-up
// probe: it sets up the workload the value names, prints "ready" and
// exits. See timeSetups.
const probeEnv = "BENCH_SETUP_PROBE"

func main() {
	if v := os.Getenv(probeEnv); v != "" {
		os.Exit(setupProbe(v))
	}
	workload := flag.String("workload", "", "workload to run: "+strings.Join(names(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "workload seed: the only input the workloads are derived from")
	secs := flag.Float64("seconds", 25, "how long to measure; at least one pass always runs")
	trace := flag.Int("trace", 0, "1 measures the first half untraced and the second half traced, and reports per-layer metrics")
	spans := flag.String("spans", "", "write the traced spans as JSON to this file")
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *workload == "all" {
		if err := runAll(*seed, *secs, *trace, *spans); err != nil {
			fatalf("%v", err)
		}
		return
	}
	w := lookup(*workload)
	if w == nil {
		fatalf("unknown workload %q (have %s)", *workload, strings.Join(names(), ", "))
	}
	ok, err := runOne(w, config{seed: *seed, seconds: *secs, trace: *trace == 1}, *spans)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload, prints its report and says whether every
// output was correct.
func runOne(w *workload, cfg config, spans string) (bool, error) {
	// The campaign's disk stores live under the build directory, which
	// .gitignore excludes: the benchmark writes only inside the directory
	// it is run from.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	out, err := run(w, cfg)
	if err != nil {
		return false, err
	}
	if spans != "" {
		if err := writeSpans(spans, out.spans); err != nil {
			return false, err
		}
	}
	report(os.Stdout, w, out)
	return out.correct(), nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runAll runs every workload in a child process of its own.
func runAll(seed int64, seconds float64, trace int, spans string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
		if spans != "" {
			ext := filepath.Ext(spans)
			args = append(args, "-spans", strings.TrimSuffix(spans, ext)+"."+w.name+ext)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed workloads: %s", strings.Join(failed, ", "))
	}
	return nil
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool   // minimum sizes, for the tests
	dir     string // scratch directory for disk stores
}

// output is everything a run measured.
type output struct {
	setup     []float64 // seconds per set-up probe
	untraced  *record
	traced    *record // nil unless traced
	spans     []span
	golden    string // recorded digest for this seed, "" if none
	peakRSSMB float64
}

// correct reports whether every op succeeded and every digest matched:
// across passes, between the traced and untraced halves, and against
// the golden digest where one is recorded.
func (o *output) correct() bool {
	for _, r := range o.records() {
		if r.failed > 0 || r.digest == "" {
			return false
		}
		if o.golden != "" && r.digest != o.golden {
			return false
		}
	}
	return o.traced == nil || o.traced.digest == o.untraced.digest
}

func (o *output) records() []*record {
	if o.traced == nil {
		return []*record{o.untraced}
	}
	return []*record{o.untraced, o.traced}
}

// run sets the workload up and measures it, timing its set-up in fresh
// processes between passes.
func run(w *workload, cfg config) (*output, error) {
	out := &output{golden: goldenDigest(w.name, cfg.seed, cfg.smoke)}
	inst, err := w.setup(cfg)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()

	ctx := context.Background()
	start := time.Now()
	p := &prober{w: w, cfg: cfg, start: start}
	half := cfg.seconds
	if cfg.trace {
		half /= 2
	}
	out.untraced = newRecord()
	if err := inst.run(ctx, nil, start.Add(dur(half)), out.untraced, p.between); err != nil {
		return nil, err
	}
	if cfg.trace {
		tr := newTracer()
		out.traced = newRecord()
		if err := inst.run(ctx, tr, start.Add(dur(cfg.seconds)), out.traced, p.between); err != nil {
			return nil, err
		}
		out.spans = tr.snapshot()
	}
	out.peakRSSMB = peakRSSMB()
	if out.setup, err = p.finish(); err != nil {
		return nil, err
	}
	return out, nil
}

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// prober times setupRuns probes, one after another, each a fresh copy of
// this executable, from start to ready: process start, runtime and
// package initialisation, and the workload's set-up (loading or
// generating circuits, starting the server). In-process set-ups alone
// take 0.1-0.6 ms, and their median varied several-fold from run to run.
//
// The probes are spread over the run: after each pass, as many as keep
// their count in step with the share of the run gone by. Run all at
// once they took a tenth of a second, and a burst of outside load that
// covered it moved the run's median up to 5 times.
type prober struct {
	w     *workload
	cfg   config
	start time.Time
	secs  []float64
	err   error
}

// between runs the probes that have come due. The workloads call it
// after each pass, outside the pass's timing.
func (p *prober) between() {
	due := setupRuns
	if s := p.cfg.seconds; s > 0 {
		due = min(due, int(math.Ceil(setupRuns*time.Since(p.start).Seconds()/s)))
	}
	p.runTo(due)
}

// finish runs the probes still to run and returns each one's seconds.
func (p *prober) finish() ([]float64, error) {
	p.runTo(setupRuns)
	return p.secs, p.err
}

// runTo brings the count of timed probes up to n. The first probe after
// a pass took half as long again as the ones after it, so it runs
// untimed: timed, it made setup_s follow the number of passes per probe,
// and so the pass time.
func (p *prober) runTo(n int) {
	if p.err != nil || len(p.secs) >= n {
		return
	}
	if _, p.err = p.probe(); p.err != nil {
		return
	}
	for len(p.secs) < n {
		sec, err := p.probe()
		if err != nil {
			p.err = err
			return
		}
		p.secs = append(p.secs, sec)
	}
}

// probe starts one probe and returns its seconds from start to ready.
func (p *prober) probe() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d %t %s", probeEnv, p.w.name, p.cfg.seed, p.cfg.smoke, p.cfg.dir))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	sec := time.Since(t).Seconds()
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	if readErr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up probe printed %q (%v), want ready", line, readErr)
	}
	return sec, nil
}

// setupProbe is a probe's whole life: v is "<workload> <seed> <smoke>
// <dir>". It returns the process's exit code.
func setupProbe(v string) int {
	runtime.GOMAXPROCS(procs)
	f := strings.SplitN(v, " ", 4)
	if len(f) != 4 || lookup(f[0]) == nil {
		fmt.Fprintf(os.Stderr, "bench: malformed %s %q\n", probeEnv, v)
		return 2
	}
	seed, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s seed: %v\n", probeEnv, err)
		return 2
	}
	inst, err := lookup(f[0]).setup(config{seed: seed, smoke: f[2] == "true", dir: f[3]})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: set-up probe: %v\n", err)
		return 2
	}
	fmt.Println("ready")
	inst.close()
	return 0
}

// record is what one measured stretch of a run collected.
type record struct {
	passes    []float64            // pass times in ms
	allocMB   []float64            // heap allocated per pass, MB
	ops       []float64            // op_p10_ms samples: see endToEnd
	classes   map[string][]float64 // named sub-latencies in ms: hit and executed jobs, pass parts
	attempted int
	failed    int
	errs      []string
	digest    string             // digest of the outputs; equal for every pass
	counts    map[string]float64 // per-layer counts and ratios
}

func newRecord() *record {
	return &record{classes: make(map[string][]float64), counts: make(map[string]float64)}
}

// fail counts one failed op and keeps the first few reasons.
func (r *record) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// setDigest records a pass's output digest; every pass of a record must
// produce the same one.
func (r *record) setDigest(d string) {
	switch {
	case r.digest == "":
		r.digest = d
	case r.digest != d:
		r.fail(fmt.Errorf("output digest %s differs from the first pass's %s", d, r.digest))
	}
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// allocatedMB reads how much the process has allocated on the heap so
// far, in MB.
func allocatedMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMB reads the process's peak resident set size (VmHWM), or 0
// where /proc is not available.
func peakRSSMB() float64 {
	b, _ := os.ReadFile("/proc/self/status")
	for _, line := range strings.Split(string(b), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// emitJSON prints the result line.
func emitJSON(w io.Writer, res result) {
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintln(w, string(b))
}
