package core

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/mutation"
	"repro/internal/sampling"
)

// fastConfig keeps unit tests quick; benchmark-grade budgets live in the
// repository-level bench harness.
func fastConfig() Config {
	return Config{
		Seed:        1,
		RandHorizon: 512,
		EquivBudget: 256,
	}
}

func newTestFlow(t *testing.T, name string) *Flow {
	t.Helper()
	f, err := NewFlow(circuits.MustLoad(name), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewFlowElaborates(t *testing.T) {
	f := newTestFlow(t, "b01")
	if f.Netlist.CombGateCount() == 0 {
		t.Error("no gates")
	}
	if len(f.Mutants) == 0 {
		t.Error("no mutants")
	}
	if len(f.Faults) == 0 {
		t.Error("no faults")
	}
	if len(f.RandomCurve()) != 512 {
		t.Errorf("random curve length %d", len(f.RandomCurve()))
	}
	last := f.RandomCurve()[len(f.RandomCurve())-1]
	if last <= 0 || last > 1 {
		t.Errorf("random coverage %v out of range", last)
	}
}

func TestProfileOperatorsShape(t *testing.T) {
	f := newTestFlow(t, "b01")
	profiles, err := f.ProfileOperators()
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) == 0 {
		t.Fatal("no profiles")
	}
	seen := make(map[mutation.Operator]bool)
	for _, p := range profiles {
		if seen[p.Op] {
			t.Errorf("duplicate profile for %s", p.Op)
		}
		seen[p.Op] = true
		if p.Mutants <= 0 {
			t.Errorf("%s: empty class profiled", p.Op)
		}
		if p.SeqLen <= 0 {
			t.Errorf("%s: empty sequence", p.Op)
		}
		if p.Eff.MFC < 0 || p.Eff.MFC > 1 {
			t.Errorf("%s: MFC %v", p.Op, p.Eff.MFC)
		}
	}
	// Cached: second call returns identical slice.
	again, _ := f.ProfileOperators()
	if &again[0] != &profiles[0] {
		t.Error("profiles not cached")
	}
}

func TestDeriveWeights(t *testing.T) {
	profiles := []OperatorProfile{
		{Op: mutation.LOR, Eff: metrics.Efficiency{NLFCE: 10, DeltaFCPts: 1, DeltaLPct: 10}},
		{Op: mutation.CR, Eff: metrics.Efficiency{NLFCE: 400, DeltaFCPts: 8, DeltaLPct: 50}},
		{Op: mutation.VR, Eff: metrics.Efficiency{NLFCE: -20, DeltaFCPts: -2, DeltaLPct: 10}},
	}
	w := DeriveWeights(profiles, 0.05)
	if w[mutation.CR] != 400 {
		t.Errorf("CR weight %v", w[mutation.CR])
	}
	if w[mutation.LOR] != 20 { // floored at 0.05*400
		t.Errorf("LOR weight %v, want floor 20", w[mutation.LOR])
	}
	if w[mutation.VR] != 20 {
		t.Errorf("VR weight %v, want floor 20", w[mutation.VR])
	}
}

func TestDeriveWeightsDoubleNegativeGuard(t *testing.T) {
	// ΔFC<0 and ΔL<0 multiply into a positive NLFCE; the guard must zero it.
	profiles := []OperatorProfile{
		{Op: mutation.CR, Eff: metrics.Efficiency{NLFCE: 100, DeltaFCPts: 5, DeltaLPct: 20}},
		{Op: mutation.LOR, Eff: metrics.Efficiency{NLFCE: 50, DeltaFCPts: -5, DeltaLPct: -10}},
	}
	w := DeriveWeights(profiles, 0.05)
	if w[mutation.LOR] != 5 { // floor, not 50
		t.Errorf("double-negative operator weight %v, want floor 5", w[mutation.LOR])
	}
}

func TestDeriveWeightsAllNonPositive(t *testing.T) {
	profiles := []OperatorProfile{
		{Op: mutation.LOR, Eff: metrics.Efficiency{NLFCE: -5, DeltaFCPts: -1, DeltaLPct: 5}},
		{Op: mutation.CR, Eff: metrics.Efficiency{NLFCE: 0}},
	}
	w := DeriveWeights(profiles, 0.05)
	if w[mutation.LOR] != 1 || w[mutation.CR] != 1 {
		t.Errorf("degenerate weights not uniform: %v", w)
	}
}

func TestCompareSamplingB01(t *testing.T) {
	f := newTestFlow(t, "b01")
	cmp, err := f.CompareSampling()
	if err != nil {
		t.Fatal(err)
	}
	if cmp.TestOriented.SampleSize != cmp.Random.SampleSize {
		t.Fatalf("sample sizes differ: %d vs %d",
			cmp.TestOriented.SampleSize, cmp.Random.SampleSize)
	}
	want := sampling.SampleSize(len(f.Mutants), 0.10)
	if cmp.TestOriented.SampleSize != want {
		t.Errorf("sample size %d, want %d", cmp.TestOriented.SampleSize, want)
	}
	for _, s := range []StrategyResult{cmp.TestOriented, cmp.Random} {
		if s.MSPct < 0 || s.MSPct > 100 {
			t.Errorf("%s MS%% = %v", s.Strategy, s.MSPct)
		}
		if s.SeqLen <= 0 {
			t.Errorf("%s: empty sequence", s.Strategy)
		}
		total := 0
		for _, n := range s.Alloc {
			total += n
		}
		if total != s.SampleSize {
			t.Errorf("%s: allocation sums to %d, sample is %d", s.Strategy, total, s.SampleSize)
		}
	}
	t.Logf("b01: test-oriented MS %.2f%% NLFCE %+.0f | random MS %.2f%% NLFCE %+.0f",
		cmp.TestOriented.MSPct, cmp.TestOriented.Eff.NLFCE,
		cmp.Random.MSPct, cmp.Random.Eff.NLFCE)
}

func TestEquivalentFlagsConsistent(t *testing.T) {
	f := newTestFlow(t, "b02")
	eq, err := f.Equivalent()
	if err != nil {
		t.Fatal(err)
	}
	if len(eq) != len(f.Mutants) {
		t.Fatalf("%d flags for %d mutants", len(eq), len(f.Mutants))
	}
	nEq := 0
	for _, e := range eq {
		if e {
			nEq++
		}
	}
	if nEq == len(f.Mutants) {
		t.Error("all mutants flagged equivalent; campaign broken")
	}
	// Cached.
	eq2, _ := f.Equivalent()
	if &eq2[0] != &eq[0] {
		t.Error("equivalence flags not cached")
	}
}

// goroutineWatch is a progress hook that records, over the reports it
// receives, the most goroutines running at a report and how many
// reports came from a goroutine other than the one that built it.
type goroutineWatch struct {
	caller string
	mu     sync.Mutex
	most   int
	// reports counts every report, elsewhere those made off caller.
	reports, elsewhere int
}

func newGoroutineWatch() *goroutineWatch { return &goroutineWatch{caller: goroutineID()} }

func (g *goroutineWatch) report(engine.Stats) {
	n, id := runtime.NumGoroutine(), goroutineID()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.most = max(g.most, n)
	g.reports++
	if id != g.caller {
		g.elsewhere++
	}
}

// goroutineID returns the calling goroutine's ID, read from the header
// of its stack trace ("goroutine 7 [running]:").
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestWorkersOneRunsInline pins that Workers: 1 runs every flow section
// on the calling goroutine: no progress report sees a goroutine beyond
// the ones running when the flow started. At Workers: 2 the reports
// must see the profile workers and the scoring lane, and in the top-off
// flow every report, FullTG's and the top-off's, must come from the
// section that runs beside the baseline on the calling goroutine.
func TestWorkersOneRunsInline(t *testing.T) {
	for _, w := range []int{1, 2} {
		cfg := Config{Seed: 1, Repeats: 1, RandHorizon: 128, EquivBudget: 64}
		cfg.Workers = w
		g := newGoroutineWatch()
		cfg.Progress = g.report
		f, err := NewFlow(circuits.MustLoad("b06"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		baseline := runtime.NumGoroutine()
		if _, err := f.CompareSampling(); err != nil {
			t.Fatal(err)
		}
		switch {
		case w == 1 && g.most > baseline:
			t.Errorf("Workers: 1 ran %d goroutines, %d when the flow started", g.most, baseline)
		case w > 1 && g.most <= baseline:
			t.Errorf("Workers: %d never ran a section beside another: %d goroutines, %d at the start", w, g.most, baseline)
		}

		g = newGoroutineWatch()
		cfg.Progress = g.report
		if f, err = NewFlow(circuits.MustLoad("c17"), cfg); err != nil {
			t.Fatal(err)
		}
		baseline = runtime.NumGoroutine()
		if _, err := f.ATPGTopoff(); err != nil {
			t.Fatal(err)
		}
		switch {
		case g.reports == 0:
			t.Errorf("Workers: %d: the top-off flow made no progress report", w)
		case w == 1 && (g.most > baseline || g.elsewhere > 0):
			t.Errorf("Workers: 1 top-off ran %d goroutines, %d when the flow started; %d of %d reports off the calling goroutine",
				g.most, baseline, g.elsewhere, g.reports)
		case w > 1 && g.elsewhere != g.reports:
			t.Errorf("Workers: %d: %d of %d top-off reports came from the calling goroutine, which runs the baseline",
				w, g.reports-g.elsewhere, g.reports)
		}
	}
}

// TestScorerScoresSessionPrograms pins that a flow compiles its mutant
// population once: the scorer runs the very programs its TG session
// compiled, the original's and every mutant's. The scorer keeps them in
// unexported fields, which the test reads by reflection.
func TestScorerScoresSessionPrograms(t *testing.T) {
	f := newTestFlow(t, "b01")
	scorer, err := f.fullScorer()
	if err != nil {
		t.Fatal(err)
	}
	tg, err := f.tgSession()
	if err != nil {
		t.Fatal(err)
	}
	orig, progs := tg.Programs()
	v := reflect.ValueOf(scorer).Elem()
	good, scored := v.FieldByName("good"), v.FieldByName("progs")
	if !good.IsValid() || !scored.IsValid() {
		t.Fatal("mutscore.Scorer has no good/progs fields to compare")
	}
	if good.Pointer() != reflect.ValueOf(orig).Pointer() {
		t.Error("the scorer's original program is not the session's")
	}
	if scored.Len() != len(progs) {
		t.Fatalf("scorer holds %d mutant programs, the session %d", scored.Len(), len(progs))
	}
	for i, p := range progs {
		if scored.Index(i).Pointer() != reflect.ValueOf(p).Pointer() {
			t.Errorf("mutant %d (%s): the scorer's program is not the session's", i, f.Mutants[i].Desc)
		}
	}
}

func TestATPGTopoffCombinational(t *testing.T) {
	f := newTestFlow(t, "c17")
	r, err := f.ATPGTopoff()
	if err != nil {
		t.Fatal(err)
	}
	if r.Baseline.PodemCalls == 0 {
		t.Error("baseline ATPG did nothing")
	}
	if r.Topoff.PodemCalls > r.Baseline.PodemCalls {
		t.Errorf("top-off calls %d > baseline %d", r.Topoff.PodemCalls, r.Baseline.PodemCalls)
	}
	if r.Remaining >= len(f.Faults) {
		t.Errorf("pre-test detected nothing: %d of %d remain", r.Remaining, len(f.Faults))
	}
	if len(r.Topoff.Vectors) > len(r.Baseline.Vectors) {
		t.Errorf("top-off needs more vectors (%d) than scratch (%d)",
			len(r.Topoff.Vectors), len(r.Baseline.Vectors))
	}
}

func TestATPGTopoffRejectsSequential(t *testing.T) {
	f := newTestFlow(t, "b02")
	if _, err := f.ATPGTopoff(); err == nil {
		t.Fatal("sequential circuit accepted")
	}
}

func TestSequentialATPGTopoff(t *testing.T) {
	f := newTestFlow(t, "b06")
	r, err := f.SequentialATPGTopoff(4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Frames != 4 {
		t.Errorf("frames = %d", r.Frames)
	}
	if r.Baseline.PodemCalls == 0 || len(r.Baseline.Tests) == 0 {
		t.Error("baseline sequential ATPG did nothing")
	}
	if r.Remaining >= len(f.Faults) {
		t.Error("pre-test detected nothing")
	}
	if len(r.Topoff.Tests) > len(r.Baseline.Tests) {
		t.Errorf("top-off needs more tests (%d) than scratch (%d)",
			len(r.Topoff.Tests), len(r.Baseline.Tests))
	}
	out := FormatSeqTopoff([]*SeqTopoffResult{r})
	if !strings.Contains(out, "b06") {
		t.Errorf("report malformed:\n%s", out)
	}
}

func TestSequentialATPGTopoffRejectsCombinational(t *testing.T) {
	f := newTestFlow(t, "c17")
	if _, err := f.SequentialATPGTopoff(4); err == nil {
		t.Fatal("combinational circuit accepted")
	}
}

func TestFormatTables(t *testing.T) {
	f := newTestFlow(t, "b01")
	profiles, err := f.ProfileOperators()
	if err != nil {
		t.Fatal(err)
	}
	s1 := FormatTable1([]Table1Row{{Circuit: "b01", Profiles: profiles}})
	if !strings.Contains(s1, "b01") || !strings.Contains(s1, "NLFCE") {
		t.Errorf("table 1 malformed:\n%s", s1)
	}
	cmp, err := f.CompareSampling()
	if err != nil {
		t.Fatal(err)
	}
	s2 := FormatTable2([]*SamplingComparison{cmp})
	if !strings.Contains(s2, "test-oriented") {
		t.Errorf("table 2 malformed:\n%s", s2)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.SampleFrac != 0.10 || c.RandHorizon != 2048 || c.EquivBudget != 1024 || c.Repeats != 5 {
		t.Errorf("defaults wrong: %+v", c)
	}
}
