package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/atpg"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/faultsim"
	"repro/internal/hdl"
	"repro/internal/mutation"
	"repro/internal/netlist"
	"repro/internal/randcirc"
	"repro/internal/synth"
	"repro/internal/tpg"
)

// workload is one set of inputs the benchmark runs. setup builds the
// inputs from the seed; the instance it returns runs ops until a
// deadline.
type workload struct {
	name  string
	setup func(cfg config) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// run executes passes until the deadline has passed, at least one,
	// recording into r and calling between after each pass, outside its
	// timing. A nil tracer runs untraced.
	run(ctx context.Context, tr *tracer, deadline time.Time, r *record, between func()) error
	close()
}

// workloads in the order -workload all runs them.
var workloads = []*workload{
	{name: "paper-tables", setup: setupPaperTables},
	{name: "atpg-topoff", setup: setupATPGTopoff},
	{name: "campaign", setup: setupCampaign},
	{name: "large-netlist", setup: setupLargeNetlist},
}

func names() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// passOut is what one pass of a batch workload produced.
type passOut struct {
	work   int // requests completed
	digest string
	counts map[string]float64
	parts  map[string]float64 // named parts of the pass, ms
}

// batch runs a fixed pass repeatedly: the same work every time, so the
// pass time is the end-to-end latency.
type batch struct {
	pass func(ctx context.Context, tr *tracer) (*passOut, error)
	// after, when set, runs once after traced passes, outside any pass.
	after func(ctx context.Context, tr *tracer) error
}

func (b *batch) close() {}

func (b *batch) run(ctx context.Context, tr *tracer, deadline time.Time, r *record, between func()) error {
	for p := 0; p == 0 || time.Now().Before(deadline); p++ {
		pctx, end := tr.start(withPass(ctx, p), "pass")
		mb, t := allocatedMB(), time.Now()
		out, err := b.pass(pctx, tr)
		ms := msSince(t)
		mb = allocatedMB() - mb
		end()
		between()
		r.attempted++
		if err != nil {
			r.fail(err)
			continue
		}
		r.setDigest(out.digest)
		r.passes = append(r.passes, ms)
		r.allocMB = append(r.allocMB, mb)
		r.ops = append(r.ops, ms/float64(out.work))
		for k, v := range out.parts {
			r.classes[k] = append(r.classes[k], v)
		}
		for k, v := range out.counts {
			r.counts[k] = v
		}
	}
	if tr != nil && b.after != nil {
		return b.after(withPass(ctx, -1), tr)
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// digestOf hashes text.
func digestOf(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func loadCircuits(names ...string) ([]*hdl.Circuit, error) {
	out := make([]*hdl.Circuit, len(names))
	for i, n := range names {
		c, err := circuits.Load(n)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// --- paper-tables ---------------------------------------------------------

// setupPaperTables loads the paper's four circuits. A pass runs Table 1
// and Table 2 on each with the repository's benchmark configuration.
// Traced passes call ProfileOperators, FullTG and Equivalent before
// CompareSampling: the flow caches each, so the work is the same and
// each step gets a span of its own.
func setupPaperTables(cfg config) (instance, error) {
	cs, err := loadCircuits(circuits.PaperBenchmarks()...)
	if err != nil {
		return nil, err
	}
	fc := core.Config{Seed: cfg.seed, SampleFrac: 0.10, RandHorizon: 2048, EquivBudget: 1024, Repeats: 5}
	if cfg.smoke {
		fc.RandHorizon, fc.EquivBudget, fc.Repeats = 256, 128, 1
	}
	pass := func(ctx context.Context, tr *tracer) (*passOut, error) {
		var rows []core.Table1Row
		var cmps []*core.SamplingComparison
		counts := make(map[string]float64)
		for _, c := range cs {
			var f *core.Flow
			if err := tr.do(ctx, "core.NewFlow", func(context.Context) (err error) {
				f, err = core.NewFlow(c, fc)
				return err
			}); err != nil {
				return nil, err
			}
			if tr != nil {
				for _, step := range []struct {
					name string
					f    func() error
				}{
					{"core.ProfileOperators", func() error { _, err := f.ProfileOperators(); return err }},
					{"core.FullTG", func() error { _, err := f.FullTG(); return err }},
					{"core.Equivalent", func() error { _, err := f.Equivalent(); return err }},
				} {
					if err := tr.do(ctx, step.name, func(context.Context) error { return step.f() }); err != nil {
						return nil, err
					}
				}
			}
			var cmp *core.SamplingComparison
			if err := tr.do(ctx, "core.CompareSampling", func(context.Context) (err error) {
				cmp, err = f.CompareSampling()
				return err
			}); err != nil {
				return nil, err
			}
			if cmp.TestOriented.SampleSize != cmp.Random.SampleSize {
				return nil, fmt.Errorf("%s: strategies drew different sample sizes", c.Name)
			}
			full, err := f.FullTG() // cached by CompareSampling
			if err != nil {
				return nil, err
			}
			counts["netlist.gates"] += float64(f.Netlist.NumGates())
			counts["mutation.mutants"] += float64(len(f.Mutants))
			counts["faultsim.faults"] += float64(len(f.Faults))
			counts["tpg.seq_len"] += float64(len(full.Seq))
			rows = append(rows, core.Table1Row{Circuit: c.Name, Profiles: cmp.Profiles})
			cmps = append(cmps, cmp)
		}
		text := core.FormatTable1(rows) + core.FormatTable2(cmps)
		return &passOut{work: len(cs), digest: digestOf([]byte(text)), counts: counts}, nil
	}
	return &batch{pass: pass}, nil
}

// --- atpg-topoff ----------------------------------------------------------

// setupATPGTopoff loads two circuits of each of the command-line tool's
// default E3 (combinational) and E4 (sequential, 8 frames) sets. The
// trivial c17 is left out, and so are c499 and b01, which take 4-5 s
// each: with them a pass took 11 s, only two fit a run, and the 10-run
// spread of the pass time was 15-23%. Traced passes call FullTG first,
// so the top-off spans hold only the ATPG model compile, both Generate
// runs and the pre-test simulation.
func setupATPGTopoff(cfg config) (instance, error) {
	comb, seq := []string{"c432", "c880"}, []string{"b02", "b06"}
	if cfg.smoke {
		comb, seq = []string{"c17"}, []string{"b02"}
	}
	combCs, err := loadCircuits(comb...)
	if err != nil {
		return nil, err
	}
	seqCs, err := loadCircuits(seq...)
	if err != nil {
		return nil, err
	}
	fc := core.Config{Seed: cfg.seed}
	const frames = 8

	flow := func(ctx context.Context, tr *tracer, c *hdl.Circuit, counts map[string]float64) (*core.Flow, error) {
		var f *core.Flow
		if err := tr.do(ctx, "core.NewFlow", func(context.Context) (err error) {
			f, err = core.NewFlow(c, fc)
			return err
		}); err != nil {
			return nil, err
		}
		counts["netlist.gates"] += float64(f.Netlist.NumGates())
		counts["mutation.mutants"] += float64(len(f.Mutants))
		counts["faultsim.faults"] += float64(len(f.Faults))
		if tr != nil {
			if err := tr.do(ctx, "core.FullTG", func(context.Context) error { _, err := f.FullTG(); return err }); err != nil {
				return nil, err
			}
		}
		return f, nil
	}
	addATPG := func(counts map[string]float64, calls, backtracks, aborted, redundant, vectors int) {
		counts["atpg.podem_calls"] += float64(calls)
		counts["atpg.backtracks"] += float64(backtracks)
		counts["atpg.aborted"] += float64(aborted)
		counts["atpg.redundant"] += float64(redundant)
		counts["atpg.vectors"] += float64(vectors)
	}

	pass := func(ctx context.Context, tr *tracer) (*passOut, error) {
		counts := make(map[string]float64)
		parts := make(map[string]float64)
		t := time.Now()
		var e3 []*core.TopoffResult
		for _, c := range combCs {
			f, err := flow(ctx, tr, c, counts)
			if err != nil {
				return nil, err
			}
			var r *core.TopoffResult
			if err := tr.do(ctx, "core.ATPGTopoff", func(context.Context) (err error) {
				r, err = f.ATPGTopoff()
				return err
			}); err != nil {
				return nil, err
			}
			if r.Topoff.PodemCalls > r.Baseline.PodemCalls {
				return nil, fmt.Errorf("%s: top-off took more PODEM calls (%d) than scratch (%d)",
					c.Name, r.Topoff.PodemCalls, r.Baseline.PodemCalls)
			}
			for _, rep := range []*atpg.Report{r.Baseline, r.Topoff} {
				addATPG(counts, rep.PodemCalls, rep.Backtracks, rep.Aborted, rep.Redundant, len(rep.Vectors))
			}
			counts["tpg.seq_len"] += float64(r.PreTestLen)
			e3 = append(e3, r)
		}
		parts["topoff_ms"] = msSince(t)
		t = time.Now()
		var e4 []*core.SeqTopoffResult
		for _, c := range seqCs {
			f, err := flow(ctx, tr, c, counts)
			if err != nil {
				return nil, err
			}
			var r *core.SeqTopoffResult
			if err := tr.do(ctx, "core.SequentialATPGTopoff", func(context.Context) (err error) {
				r, err = f.SequentialATPGTopoff(frames)
				return err
			}); err != nil {
				return nil, err
			}
			for _, rep := range []*atpg.SeqReport{r.Baseline, r.Topoff} {
				addATPG(counts, rep.PodemCalls, rep.Backtracks, rep.Aborted, rep.Untestable, len(rep.Tests))
			}
			counts["tpg.seq_len"] += float64(r.PreTestLen)
			e4 = append(e4, r)
		}
		parts["seqtopoff_ms"] = msSince(t)
		if calls := counts["atpg.podem_calls"]; calls > 0 {
			counts["atpg.abort_frac"] = counts["atpg.aborted"] / calls
		}
		text := core.FormatTopoff(e3) + core.FormatSeqTopoff(e4)
		return &passOut{work: len(combCs) + len(seqCs), digest: digestOf([]byte(text)), counts: counts, parts: parts}, nil
	}

	// after times the ATPG model compile on its own, which the top-off
	// spans include but cannot separate.
	after := func(ctx context.Context, tr *tracer) error {
		for _, c := range append(append([]*hdl.Circuit(nil), combCs...), seqCs...) {
			nl, err := synth.Synthesize(c)
			if err != nil {
				return err
			}
			if err := tr.do(ctx, "atpg.NewModel", func(context.Context) error {
				if nl.IsSequential() {
					_, err := atpg.NewSequentialModel(nl, frames)
					return err
				}
				_, err := atpg.NewModel(nl)
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	}
	return &batch{pass: pass, after: after}, nil
}

// --- large-netlist --------------------------------------------------------

// largeDesigns are the two random designs, 10 to 40 times the paper
// circuits' size. They are fixed rather than drawn from the workload
// seed: designs drawn per seed range from 2.6k to 6.8k gates and 4% to
// 39% coverage, which moves the pass time by 70% between seeds. The
// seed drives the stimulus.
var largeDesigns = []randcirc.Config{
	{Seed: 3, Inputs: 12, Outputs: 12, Regs: 16, Wires: 32, MaxWidth: 16, MaxDepth: 6, ExtraStmts: 32},
	{Seed: 4, Inputs: 16, Outputs: 16, Regs: -1, Wires: 64, MaxWidth: 16, MaxDepth: 6, ExtraStmts: 48},
}

// smokeDesigns are the smallest random designs: randcirc defaults.
var smokeDesigns = []randcirc.Config{{Seed: 3}, {Seed: 4, Regs: -1}}

const (
	largeCycles = 2048
	largeWindow = 64
)

// setupLargeNetlist generates the designs. A pass elaborates each one
// through synthesis, compilation, fingerprinting, mutant generation and
// the fault list, then fault-simulates largeCycles cycles of raw random
// stimulus: in largeWindow-cycle Appends for the sequential design, one
// Run for the combinational one.
func setupLargeNetlist(cfg config) (instance, error) {
	designs := largeDesigns
	if cfg.smoke {
		designs = smokeDesigns
	}
	cs := make([]*hdl.Circuit, len(designs))
	for i, d := range designs {
		c, err := randcirc.Generate(d)
		if err != nil {
			return nil, err
		}
		cs[i] = c
	}
	pass := func(ctx context.Context, tr *tracer) (*passOut, error) {
		counts := make(map[string]float64)
		var profile []byte
		for i, c := range cs {
			res, err := simulateDesign(ctx, tr, c, cfg.seed+int64(i), counts)
			if err != nil {
				return nil, fmt.Errorf("design %d: %w", i, err)
			}
			for _, d := range res.FirstDetected {
				profile = binary.AppendVarint(profile, int64(d))
			}
			counts["faultsim.detected"] += float64(res.DetectedCount())
		}
		return &passOut{work: len(cs), digest: digestOf(profile), counts: counts}, nil
	}
	return &batch{pass: pass}, nil
}

func simulateDesign(ctx context.Context, tr *tracer, c *hdl.Circuit, seed int64, counts map[string]float64) (*faultsim.Result, error) {
	var nl *netlist.Netlist
	if err := tr.do(ctx, "synth.Synthesize", func(context.Context) (err error) {
		nl, err = synth.Synthesize(c)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.do(ctx, "netlist.Compile", func(context.Context) error {
		_, err := netlist.Compile(nl)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.do(ctx, "netlist.Fingerprint", func(context.Context) error {
		_, err := nl.Fingerprint()
		return err
	}); err != nil {
		return nil, err
	}
	// One operator class at a time, as the campaign's TG shards do: the
	// whole population of a design this size holds about 1 GB of mutant
	// circuits at once.
	for _, op := range mutation.AllOperators() {
		tr.do(ctx, "mutation.Generate", func(context.Context) error {
			counts["mutation.mutants"] += float64(len(mutation.Generate(c, op)))
			return nil
		})
	}
	var faults []faultsim.Fault
	tr.do(ctx, "faultsim.Faults", func(context.Context) error {
		faults = faultsim.Faults(nl)
		return nil
	})
	var sim *faultsim.Simulator
	if err := tr.do(ctx, "faultsim.New", func(context.Context) (err error) {
		sim, err = faultsim.New(nl, faults)
		return err
	}); err != nil {
		return nil, err
	}
	var pats []faultsim.Pattern
	tr.do(ctx, "tpg.RawRandomSequence", func(context.Context) error {
		pats = tpg.ToPatterns(c, tpg.RawRandomSequence(c, largeCycles, seed))
		return nil
	})
	counts["netlist.gates"] += float64(nl.NumGates())
	counts["faultsim.faults"] += float64(len(faults))
	counts["faultsim.faultcycles"] += float64(len(faults) * len(pats))
	if !nl.IsSequential() {
		var res *faultsim.Result
		err := tr.do(ctx, "faultsim.Run", func(context.Context) (err error) {
			res, err = sim.Run(pats)
			return err
		})
		return res, err
	}
	for at := 0; at < len(pats); at += largeWindow {
		if err := tr.do(ctx, "faultsim.Append", func(context.Context) error {
			_, err := sim.Append(pats[at:min(at+largeWindow, len(pats))])
			return err
		}); err != nil {
			return nil, err
		}
	}
	return sim.Current().Clone(), nil
}
