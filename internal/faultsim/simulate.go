package faultsim

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/engine"
	"repro/internal/lane"
	"repro/internal/netlist"
	"repro/internal/par"
)

// Pattern is one gate-level test vector: a 0/1 value per primary input, in
// netlist PI order.
type Pattern []uint8

// Result is the outcome of fault-simulating an ordered test set.
//
// Ownership follows the session contract (package engine): Run and RunOn
// return a caller-owned Result, while Append and AppendTest return a
// session-owned view that the next call on the same Simulator overwrites
// — Clone it to retain it across calls.
type Result struct {
	Faults []Fault
	// FirstDetected[i] is the index (pattern index for combinational
	// circuits, cycle index for sequential ones) at which fault i is first
	// detected, or -1 if the test set never detects it.
	FirstDetected []int
	// Patterns is the number of applied patterns/cycles.
	Patterns int
}

// Clone returns a caller-owned deep copy, detached from any simulator
// session. The Faults list is shared — it is immutable session input.
func (r *Result) Clone() *Result {
	return &Result{
		Faults:        r.Faults,
		FirstDetected: append([]int(nil), r.FirstDetected...),
		Patterns:      r.Patterns,
	}
}

// DetectedCount returns the number of detected faults.
func (r *Result) DetectedCount() int {
	n := 0
	for _, d := range r.FirstDetected {
		if d >= 0 {
			n++
		}
	}
	return n
}

// Coverage returns detected/total in [0,1].
func (r *Result) Coverage() float64 {
	if len(r.Faults) == 0 {
		return 0
	}
	return float64(r.DetectedCount()) / float64(len(r.Faults))
}

// Curve returns the fault coverage after each applied pattern: element k is
// the coverage achieved by the first k+1 patterns.
func (r *Result) Curve() []float64 {
	counts := make([]int, r.Patterns)
	for _, d := range r.FirstDetected {
		if d >= 0 {
			counts[d]++
		}
	}
	curve := make([]float64, r.Patterns)
	acc := 0
	total := len(r.Faults)
	for k := 0; k < r.Patterns; k++ {
		acc += counts[k]
		if total > 0 {
			curve[k] = float64(acc) / float64(total)
		}
	}
	return curve
}

// Undetected returns the faults the test set missed.
func (r *Result) Undetected() []Fault {
	var out []Fault
	for i, d := range r.FirstDetected {
		if d < 0 {
			out = append(out, r.Faults[i])
		}
	}
	return out
}

// Config tunes fault simulation. The zero value is the fast default. The
// execution knobs are the shared engine surface (see engine.Options for
// the Workers semantics, the progress hook and cancellation): Workers ==
// 1 selects the single-fault reference engine — one Evaluator pass per
// fault, strictly serial, kept for differential testing. No knob picks
// the lane width: the simulator chooses it per topology. Combinational
// sessions run 64-pattern (W=1) batches: a batch's fault-free pass is
// shared by every live fault, whose propagation touches only the gates
// it disturbs, and narrow batches drop detected faults soonest and keep
// each disturbed gate one word wide. Sequential sessions plan W=8
// batches (wide vectors amortize the per-gate decode over more fault
// machines) plus the cheapest narrower tail, and re-plan narrower as
// lanes drop (see planSeqChunks and maybeReplan). Results are identical
// for every setting (see parity_test.go and internal/difftest). No knob
// chooses how a sequential batch is evaluated either: each one runs
// full machine passes, or event-driven steps that evaluate only the
// gates its live faults disturb, as its injected-gate count and then
// its measured activity make cheaper (see stepCost and PathStats).
type Config struct {
	engine.Options
	// StaticPlan pins the initial parallel-fault batch plan for the
	// whole session, disabling the scheduler's mid-campaign re-planning
	// (the "masked execution" compaction that moves surviving lanes from
	// half-dead wide batches onto narrower machines; see
	// ARCHITECTURE.md). Results are bit-identical either way — lanes are
	// independent and the stimulus is broadcast — so the knob exists for
	// the scheduler-ablation benchmarks and the differential fuzz
	// harness, not for production tuning.
	StaticPlan bool
}

// Simulator runs stuck-at fault simulation against a fixed netlist and
// collapsed fault list.
//
// A Simulator is a session: Run simulates a test set from power-on reset,
// and Append extends the applied sequence in place — the good-machine
// trace, the per-fault drop state and the live-fault frontier carry over,
// so Append(t1) followed by Append(t2) is bit-identical to Run(t1 ∥ t2)
// while only simulating the still-undetected frontier over the new
// cycles. The compiled engine simulates only the frontier's faults whose
// site reaches a primary output; the others keep their place on the
// frontier, undetected. Run is reset-plus-Append; Reset restarts the
// session explicitly. Not safe for concurrent use.
type Simulator struct {
	nl     *netlist.Netlist
	faults []Fault
	cfg    Config

	good *netlist.Evaluator // reference engine (Workers == 1)
	bad  *netlist.Evaluator
	prog *netlist.Program // compiled engine (every other setting)
	// reach marks the gates with a structural path to a primary output.
	// A fault on any other gate is undetectable under every stimulus, so
	// it stays on the frontier but the compiled engine gives it no lane.
	reach []bool

	// Session state, rebuilt by Reset (and so by Run/RunOn).
	applied  int                       // cycles (sequential) / patterns (combinational) applied
	detected []int                     // cumulative first-detection profile over faults
	live     []int                     // frontier: included faults not yet detected
	batches  []seqBatch                // live parallel-fault batches (compiled sequential)
	goodM    *netlist.Machine[lane.W1] // persistent good machine (compiled sequential)
	refSeq   []Pattern                 // accumulated stimulus (reference sequential replay)
	testMode bool                      // session is in AppendTest (reset-per-test) discipline
	err      error                     // sticky failure from a cancelled/failed Append
	paths    PathStats                 // sequential work per path since the last reset

	// Session-owned scratch, recycled across windows so a warm Append
	// allocates nothing (see the engine package's ownership contract).
	// Only the owning session touches these between calls; the parallel
	// sections read them but never grow them.
	res     Result              // the view snapshot() refreshes per window
	incAll  []int               // Reset's full-fault-list include buffer
	lanes   []int               // the frontier faults given lanes (laned)
	goodPOs [][]uint64          // good-trace PO rows for the current window
	goodNet [][]uint64          // good-trace net rows, one bit per net, when a batch steps
	errs    []error             // per-batch error slots for the current window
	tally   []PathStats         // per-batch path counts for the current window
	chunks  []seqChunk          // plan scratch (planSeqChunks + re-plan cost probe)
	surv    [][]uint64          // re-plan scratch: packed FF state per surviving lane
	w1      widthState[lane.W1] // per-width sequential state, reached through widthOf
	w4      widthState[lane.W4]
	w8      widthState[lane.W8]
	// comb holds the combinational worker machines. They never carry an
	// injected fault: each batch starts with a fault-free Eval, and fault
	// propagation restores every net it touches, so reuse across Appends
	// is free.
	comb []*netlist.Machine[lane.W1]
	// pis is the combinational window: the packed PI word batches.
	pis [][]lane.W1
}

// widthState is the session's sequential state at one lane width W,
// reached through widthOf. Sequential batches of every width can be live
// at once (ragged tails and re-plans pick narrower widths), so each width
// keeps its own machines, batch shells and stimulus rows. Serial session
// code grows and rewrites these; the parallel sections only read them.
type widthState[W lane.Word] struct {
	// free holds armed machines of retired batches; arming redraws them.
	free []*netlist.Machine[W]
	// shells holds retired batch shells, so warm re-plans allocate nothing.
	shells []*seqBatchW[W]
	// stim is the sequential window's stimulus, every cycle broadcast to
	// all lanes.
	stim [][]W
	// steps holds one Machine.Step scratch per worker. A step leaves
	// its scratch empty, so the worker's batches share it in turn.
	steps []*netlist.EventScratch[W]
}

// widthOf returns the session's state at width W.
func widthOf[W lane.Word](s *Simulator) *widthState[W] {
	var w W
	switch len(w) {
	case 4:
		return any(&s.w4).(*widthState[W])
	case 8:
		return any(&s.w8).(*widthState[W])
	default:
		return any(&s.w1).(*widthState[W])
	}
}

// getMachine draws a sanitized machine from the width-W free list, or
// builds one when the list is dry. Recycled machines are exactly fresh
// ones: ClearFaults removes every injection, Reset restores power-on
// flip-flop state, and net values are recomputed from scratch every Eval.
// Serial session code only — the free lists are not locked.
func getMachine[W lane.Word](s *Simulator) *netlist.Machine[W] {
	ws := widthOf[W](s)
	if n := len(ws.free); n > 0 {
		m := ws.free[n-1]
		ws.free[n-1] = nil
		ws.free = ws.free[:n-1]
		m.ClearFaults()
		m.Reset()
		return m
	}
	return netlist.NewMachine[W](s.prog)
}

// putMachine returns a machine to the width-W free list. Serial session
// code only.
func putMachine[W lane.Word](s *Simulator, m *netlist.Machine[W]) {
	if m == nil {
		return
	}
	ws := widthOf[W](s)
	ws.free = append(ws.free, m)
}

// newBatch draws a recycled batch shell at width W (or builds one when
// the pool is dry) and fills it with a copy of the given frontier slice,
// every lane live and the machine not yet armed. Serial session code
// only.
func newBatch[W lane.Word](s *Simulator, faults []int) *seqBatchW[W] {
	ws := widthOf[W](s)
	var c *seqBatchW[W]
	if n := len(ws.shells); n > 0 {
		c = ws.shells[n-1]
		ws.shells[n-1] = nil
		ws.shells = ws.shells[:n-1]
	} else {
		c = &seqBatchW[W]{}
	}
	c.faults = append(c.faults[:0], faults...)
	c.active = lane.FirstN[W](len(c.faults))
	c.m = nil
	c.done = false
	return c
}

// New builds a fault simulator with the default configuration. The fault
// list defaults to Faults(nl) when faults is nil.
func New(nl *netlist.Netlist, faults []Fault) (*Simulator, error) {
	return Config{}.New(nl, faults)
}

// New builds a fault simulator under this configuration. The fault list
// defaults to Faults(nl) when faults is nil.
func (c Config) New(nl *netlist.Netlist, faults []Fault) (*Simulator, error) {
	var err error
	if faults == nil {
		faults = Faults(nl)
	}
	s := &Simulator{nl: nl, faults: faults, cfg: c, reach: reachesPO(nl)}
	if c.Serial() {
		if s.good, err = netlist.NewEvaluator(nl); err != nil {
			return nil, err
		}
		if s.bad, err = netlist.NewEvaluator(nl); err != nil {
			return nil, err
		}
	} else {
		if s.prog, err = netlist.Compile(nl); err != nil {
			return nil, err
		}
		if nl.IsSequential() {
			s.goodM = netlist.NewMachine[lane.W1](s.prog)
		}
	}
	s.Reset()
	return s, nil
}

// reachesPO marks the gates with a structural path to a primary output:
// a backward walk from the POs over every fanin edge, flip-flop D pins
// included, in O(gates + fanin edges). A fault's effect leaves its site
// gate only through that gate's output (a branch fault changes the value
// its gate reads), so a fault whose site is unmarked can change no PO
// value, on any cycle, under any stimulus.
func reachesPO(nl *netlist.Netlist) []bool {
	reach := make([]bool, len(nl.Gates))
	stack := make([]int, 0, len(nl.POs))
	for _, g := range nl.POs {
		if !reach[g] {
			reach[g] = true
			stack = append(stack, g)
		}
	}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range nl.Gates[g].Fanin {
			if d >= 0 && !reach[d] {
				reach[d] = true
				stack = append(stack, d)
			}
		}
	}
	return reach
}

// laned returns the listed faults that get a lane, those whose site
// reaches a primary output, in list order. The slice is session scratch,
// overwritten by the next call; appendCombLanes's pool reads it until
// the pool joins.
func (s *Simulator) laned(list []int) []int {
	out := s.lanes[:0]
	for _, fi := range list {
		if s.reach[s.faults[fi].Site.Gate] {
			out = append(out, fi)
		}
	}
	s.lanes = out
	return out
}

// Faults returns the fault list under simulation.
func (s *Simulator) Faults() []Fault { return s.faults }

// Applied returns the number of patterns/cycles applied since the last
// reset.
func (s *Simulator) Applied() int { return s.applied }

// Frontier returns the indices of the faults still under simulation —
// the included, not-yet-detected subset the next Append will exercise.
// It lists the faults without a lane too (see Simulator): no stimulus
// detects them, and they leave it only when retired. The slice is owned
// by the caller.
func (s *Simulator) Frontier() []int { return append([]int(nil), s.live...) }

// PathStats counts the compiled sequential engine's work since the last
// reset, by the path each batch took: batch-cycles run as a full
// Machine.Eval+Clock pass, batch-cycles run as an event-driven
// Machine.Step, and the instructions those steps evaluated (a full pass
// evaluates all of them). Combinational sessions and the Workers: 1
// reference count nothing.
type PathStats struct {
	FullCycles  int
	EventCycles int
	EventEvals  int
}

// PathStats returns the session's path counts. They are observability
// only: no Result, Checkpoint or report carries them.
func (s *Simulator) PathStats() PathStats { return s.paths }

// BatchWidths returns the lane width, in 64-bit words, of each live
// parallel-fault batch of a compiled sequential session, in schedule
// order: the plan the next window starts from (its start may re-plan it
// narrower). Combinational sessions and the Workers: 1 reference run no
// batches. Like PathStats, it is observability only.
func (s *Simulator) BatchWidths() []int {
	var out []int
	for _, b := range s.batches {
		if !b.retired() {
			out = append(out, b.width())
		}
	}
	return out
}

// Reset restarts the session at power-on reset with the full fault list
// live and zero patterns applied. It also clears any sticky error left
// by a cancelled Append.
func (s *Simulator) Reset() {
	s.incAll = engine.Grow(s.incAll, len(s.faults))
	for i := range s.incAll {
		s.incAll[i] = i
	}
	s.resetTo(s.incAll)
}

// resetTo restarts the session with the given (validated, owned) fault
// subset as the frontier. Scratch buffers and armed machines are
// recycled, not dropped: each retiring batch returns its machine to the
// session free list before the new plan redraws.
func (s *Simulator) resetTo(include []int) {
	s.applied = 0
	s.err = nil
	s.testMode = false
	s.paths = PathStats{}
	s.detected = engine.Grow(s.detected, len(s.faults))
	for i := range s.detected {
		s.detected[i] = -1
	}
	s.live = include
	s.refSeq = s.refSeq[:0]
	for _, b := range s.batches {
		b.recycle(s)
	}
	s.batches = s.batches[:0]
	if s.goodM != nil {
		s.goodM.Reset()
		s.batches = s.planBatches(s.laned(include))
	}
}

// snapshot refreshes and returns the session-owned cumulative result
// view (see the Result ownership comment).
//
//repro:session-owned
func (s *Simulator) snapshot() *Result {
	s.res.Faults = s.faults
	s.res.FirstDetected = append(s.res.FirstDetected[:0], s.detected...)
	s.res.Patterns = s.applied
	return &s.res
}

// Current returns the cumulative first-detection profile since the last
// reset without applying anything: the same session-owned view Append
// returns, reflecting every pattern applied so far. Campaign drivers
// read it once at the end of a run instead of retaining the view each
// round.
//
//repro:session-owned
func (s *Simulator) Current() *Result {
	return s.snapshot()
}

// Run fault-simulates the ordered test set from power-on reset and
// returns the first-detection profile. Combinational circuits treat each
// pattern independently (64 patterns per batch); sequential circuits
// treat the whole set as one sequence applied from power-on reset,
// simulated up to 512 faults at a time (parallel-fault, one fault
// machine per lane) with per-lane fault dropping at first detection. Run
// is exactly Reset followed by Append; unlike Append, the returned
// Result is caller-owned.
func (s *Simulator) Run(tests []Pattern) (*Result, error) {
	s.Reset()
	res, err := s.Append(tests)
	if err != nil {
		return nil, err
	}
	return res.Clone(), nil
}

// RunOn is Run restricted to the faults whose indices are listed (nil
// means the whole list; a non-nil empty list simulates nothing). Indices
// must be unique — duplicates would put the same fault in two parallel
// batches. Excluded faults keep FirstDetected == -1. Fault-dropping
// callers (ATPG) use it to re-simulate only still-alive faults. The
// session continues from the subset: a later Append extends this run.
// Like Run, the returned Result is caller-owned.
func (s *Simulator) RunOn(tests []Pattern, include []int) (*Result, error) {
	if include == nil {
		return s.Run(tests)
	}
	seen := make([]bool, len(s.faults))
	for _, fi := range include {
		if fi < 0 || fi >= len(s.faults) {
			return nil, fmt.Errorf("faultsim: fault index %d out of range [0,%d)", fi, len(s.faults))
		}
		if seen[fi] {
			return nil, fmt.Errorf("faultsim: fault index %d listed twice", fi)
		}
		seen[fi] = true
	}
	s.resetTo(append([]int(nil), include...))
	res, err := s.Append(tests)
	if err != nil {
		return nil, err
	}
	return res.Clone(), nil
}

// Append extends the applied sequence with the given tests and returns
// the cumulative first-detection profile since the last reset (detection
// indices are global: an index of k names the k-th applied pattern/cycle
// overall). Only the live frontier is simulated over the new
// patterns/cycles; the good-machine trace and per-fault state carry over,
// so chunked Appends are bit-identical to one one-shot Run of the
// concatenation. A cancelled (engine.Options.Ctx) or failed Append
// poisons the session — every later Append reports the same error until
// Reset/Run/RunOn restarts it.
//
// The returned Result is a session-owned view: the next call on this
// Simulator overwrites it. Read it before the next call, or Clone it to
// retain it — the round-by-round callers (ATPG drop-sim, windowed
// campaign jobs) read it and move on, which is why a warm Append
// allocates nothing.
//
//repro:session-owned
func (s *Simulator) Append(tests []Pattern) (*Result, error) {
	// Sticky poisoning wins over the discipline check: a cancelled
	// AppendTest must keep reporting its own error, not misuse.
	if s.err == nil && s.nl.IsSequential() && s.testMode {
		return nil, fmt.Errorf("faultsim: Append after AppendTest mixes application disciplines; Reset the session first")
	}
	return s.appendWindow(tests, false)
}

// AppendTest appends one complete power-on test to the session: every
// machine restarts from power-on reset (the "reset between tests"
// application discipline), while the session's per-fault drop state, the
// live frontier and the armed fault batches all carry over — faults a
// previous test detected are not re-simulated, retired batches stay
// skipped, and live batches keep their injected faults so only flip-flop
// state is rewound. The cumulative result is exactly what per-test
// subset runs (RunOn on the shrinking frontier) would produce, with
// detection indices still counting applied cycles globally. A session
// that has seen AppendTest stays in the reset-per-test discipline until
// Reset/Run/RunOn: a plain Append would silently mean something
// different on each engine, so it is rejected instead. On combinational
// circuits patterns are independent anyway and AppendTest is identical
// to Append. The returned Result is the same session-owned view Append
// returns.
//
//repro:session-owned
func (s *Simulator) AppendTest(test []Pattern) (*Result, error) {
	if !s.nl.IsSequential() {
		return s.appendWindow(test, false)
	}
	return s.appendWindow(test, true)
}

// appendWindow is the shared Append/AppendTest engine dispatch; its
// result is the same session-owned snapshot view.
//
//repro:session-owned
func (s *Simulator) appendWindow(tests []Pattern, fromReset bool) (*Result, error) {
	if s.err != nil {
		return nil, s.err
	}
	for i, p := range tests {
		if len(p) != len(s.nl.PIs) {
			return nil, fmt.Errorf("faultsim: pattern %d has %d values for %d PIs", i, len(p), len(s.nl.PIs))
		}
	}
	if err := s.cfg.Cancelled(); err != nil {
		s.err = fmt.Errorf("faultsim: %w", err)
		return nil, s.err
	}
	if len(tests) > 0 {
		if fromReset {
			// A zero-length test is a no-op and must not lock the
			// discipline, so the flag flips only when cycles apply.
			s.testMode = true
		}
		var err error
		if s.nl.IsSequential() {
			if s.cfg.Serial() {
				err = s.appendSequentialRef(tests, fromReset)
			} else {
				// Re-plan at window START, not after the previous one: a
				// compaction only pays off if more cycles actually arrive,
				// so the last window of a session (every window of a
				// one-shot Run) never pays the transplant for nothing.
				if !s.cfg.StaticPlan {
					s.maybeReplan()
				}
				err = s.appendSequential(tests, fromReset)
			}
		} else {
			if s.cfg.Serial() {
				err = s.appendCombinationalRef(tests)
			} else {
				err = s.appendCombLanes(tests)
			}
		}
		if err != nil {
			s.err = fmt.Errorf("faultsim: %w", err)
			return nil, s.err
		}
		s.applied += len(tests)
		s.prune()
	}
	return s.snapshot(), nil
}

// Retire removes a still-live fault from the session frontier without
// recording a detection: later windows stop simulating it and its
// FirstDetected stays -1. ATPG drop-sim sessions use it to stop paying
// for faults the search proved redundant or gave up on. Retiring frees
// the fault's lane in its parallel-fault batch; a batch whose last lane
// retires is released like a fully dropped one. Retiring a fault that is
// not on the frontier (already detected, excluded or retired) is a
// no-op. Removal costs one linear pass over the frontier and, for a
// fault with a lane, one over the lanes of the live batches up to the
// fault's own — callers retire at most once per fault, and each
// retirement follows work (a PODEM search, say) that dwarfs it.
func (s *Simulator) Retire(fi int) error {
	if fi < 0 || fi >= len(s.faults) {
		return fmt.Errorf("faultsim: fault index %d out of range [0,%d)", fi, len(s.faults))
	}
	found := false
	for j, v := range s.live {
		if v == fi {
			s.live = append(s.live[:j], s.live[j+1:]...)
			found = true
			break
		}
	}
	if !found || !s.reach[s.faults[fi].Site.Gate] {
		return nil // not on the frontier, or on it without a lane
	}
	for _, b := range s.batches {
		if !b.retired() && b.dropLane(s, fi) {
			break
		}
	}
	return nil
}

// prune drops detected faults from the frontier and retired batches from
// the schedule, returning each retired batch's machine and shell to the
// session free lists (prune runs serially after the parallel section, so
// it is the safe place to touch the lists). Compaction of the survivors
// onto a cheaper plan waits for the next window's start (maybeReplan).
func (s *Simulator) prune() {
	liveOut := s.live[:0]
	for _, fi := range s.live {
		if s.detected[fi] < 0 {
			liveOut = append(liveOut, fi)
		}
	}
	s.live = liveOut
	if s.batches != nil {
		batchOut := s.batches[:0]
		for _, b := range s.batches {
			if !b.retired() {
				batchOut = append(batchOut, b)
				continue
			}
			b.recycle(s)
		}
		s.batches = batchOut
	}
}

// maybeReplan compacts the surviving lanes onto a fresh batch plan when
// that plan costs strictly fewer pass-units per window than the current
// one — the scheduler's answer to "masked exec for retired words". Long
// campaigns drop most lanes early; without compaction a batch with one
// survivor still pays a full W-word Machine pass every cycle for words
// whose every lane is dead. Re-planning moves each surviving lane's
// flip-flop state (LaneStateInto/SetLaneState, so widths can change)
// onto the cheapest plan for the shrunken frontier — typically merging
// half-dead W8 batches into one narrow batch, ending at the
// scalar-specialized W1 machine. Results are bit-identical: lanes are
// independent, the stimulus is broadcast to all of them, and detection
// indices derive from each fault's own lane. Machines and batch shells
// cycle through the session free lists, so a warm re-plan allocates
// nothing. Serial session code only, invoked at the start of each
// sequential Append window (before any fan-out).
func (s *Simulator) maybeReplan() {
	lanes := s.laned(s.live)
	n := len(lanes)
	if n == 0 || len(s.batches) == 0 {
		return
	}
	cur := 0
	for _, b := range s.batches {
		if b.retired() {
			// Fully dead since the last prune (Retire between windows
			// releases the machine on the last lane drop): run() skips it,
			// so it prices at zero, and extractLive has nothing to take.
			continue
		}
		if !b.armed() {
			return // plan never ran a window; nothing to compact
		}
		cur += passCost(b.width())
	}
	planned := 0
	for _, c := range s.planSeqChunks(n) {
		planned += passCost(c.words)
	}
	if planned >= cur {
		return
	}
	// Carry each surviving lane's flip-flop state over, in frontier
	// order — batches hold contiguous slices of the laned frontier, so
	// batch-major lane order IS the order of lanes.
	s.surv = engine.Grow(s.surv, n)
	idx := 0
	for _, b := range s.batches {
		idx = b.extractLive(s, idx)
	}
	if idx != n {
		// The frontier and the lane masks disagree — never expected; keep
		// the current (correct) plan rather than compact from state we
		// cannot trust.
		return
	}
	for _, b := range s.batches {
		b.recycle(s)
	}
	s.batches = s.planBatches(lanes)
	idx = 0
	for _, b := range s.batches {
		b.arm(s)
		idx = b.implantLive(s, idx)
	}
}

const allLanes = ^uint64(0)

// --- compiled combinational (pattern-parallel) -------------------------------

// packPatternBatches packs the test set into 64-pattern PI word batches
// (bit t of every word is pattern lo+t) into the session's window rows
// and returns them.
func (s *Simulator) packPatternBatches(tests []Pattern) [][]lane.W1 {
	nBatches := (len(tests) + 63) / 64
	out := engine.Grow(s.pis, nBatches)
	for b := 0; b < nBatches; b++ {
		lo := b * 64
		hi := min(lo+64, len(tests))
		words := engine.Grow(out[b], len(s.nl.PIs))
		for pi := range words {
			var w lane.W1
			for ln, t := lo, 0; ln < hi; ln, t = ln+1, t+1 {
				if tests[ln][pi] != 0 {
					w[0] |= 1 << uint(t)
				}
			}
			words[pi] = w
		}
		out[b] = words
	}
	s.pis = out
	return out
}

// broadcast converts each pattern to PI vectors replicated across all
// lanes (the sequential stimulus: every lane applies the same cycle) into
// the session's width-W stimulus rows, rewritten in place so a warm
// window allocates nothing, and returns them.
func broadcast[W lane.Word](s *Simulator, tests []Pattern) [][]W {
	var zero W
	one := lane.Broadcast[W](allLanes)
	ws := widthOf[W](s)
	out := engine.Grow(ws.stim, len(tests))
	for cyc, p := range tests {
		words := engine.Grow(out[cyc], len(s.nl.PIs))
		for pi, v := range p {
			if v != 0 {
				words[pi] = one
			} else {
				words[pi] = zero
			}
		}
		out[cyc] = words
	}
	ws.stim = out
	return out
}

// appendCombLanes is the compiled pattern-parallel path, batch-major per
// worker: worker j owns every workers-th live fault (which spreads the
// few faults that propagate far evenly over the pool) and, per 64-
// pattern batch of the new patterns, runs one fault-free pass on its
// machine and propagates each of its undetected faults through only the
// gates the fault disturbs (Machine.PropagateFault). A fault a batch
// detects is skipped by every later batch, so its first detection is the
// lowest lane of the first batch that detects it. Faults are
// independent, so the workers never wait on each other. Detection
// indices are offset by the patterns already applied; progress counts
// the live faults settled (detected, or undetected by the whole window),
// reported after every batch. Only the laned frontier is simulated; the
// faults without a lane count as settled from the first report.
func (s *Simulator) appendCombLanes(tests []Pattern) error {
	total := len(s.live)
	lanes := s.laned(s.live)
	settled := total - len(lanes)
	if len(lanes) == 0 {
		if total > 0 {
			s.cfg.Report(total, total)
		}
		return nil
	}
	batchPIs := s.packPatternBatches(tests)
	workers := par.Workers(s.cfg.Workers, len(lanes))
	for len(s.comb) < workers {
		s.comb = append(s.comb, netlist.NewMachine[lane.W1](s.prog))
	}
	base := s.applied
	var mu sync.Mutex
	return par.IndexedCtx(s.cfg.Ctx, workers, workers, func(_, j int) {
		m := s.comb[j]
		left := (len(lanes) - j + workers - 1) / workers // this worker's undetected faults
		for b, words := range batchPIs {
			if s.cfg.Cancelled() != nil {
				return
			}
			m.Eval(words)
			lo := b * 64
			laneMask := lane.FirstN[lane.W1](len(tests) - lo)[0]
			done := 0
			for n, i := 0, j; i < len(lanes); n, i = n+1, i+workers {
				if n&1023 == 1023 && s.cfg.Cancelled() != nil {
					return
				}
				fi := lanes[i]
				if s.detected[fi] >= 0 {
					continue // detected by an earlier batch
				}
				if d := m.PropagateFault(s.faults[fi].Site)[0] & laneMask; d != 0 {
					s.detected[fi] = base + lo + bits.TrailingZeros64(d)
					done++
				}
			}
			left -= done
			if b == len(batchPIs)-1 {
				done, left = done+left, 0
			}
			// Count and report under one lock so Done never goes
			// backwards, as par.IndexedCtx does for its job counts.
			mu.Lock()
			settled += done
			s.cfg.Report(settled, total)
			mu.Unlock()
			if left == 0 {
				return
			}
		}
	}, nil)
}

// --- compiled sequential (parallel-fault) ------------------------------------

// seqChunk is one planned parallel-fault batch: frontier positions
// [lo:hi) simulated on a machine of the given lane width.
type seqChunk struct {
	lo, hi int
	words  int
}

// passCost approximates the relative cost of one instruction-stream pass
// at each width, in tenths of a W=1 pass (measured on the benchmark
// circuits: wider passes amortize the per-gate decode but touch W times
// the data).
func passCost(words int) int {
	switch words {
	case 4:
		return 19
	case 8:
		return 22
	}
	return 10
}

// stepCost is R, the cost of one instruction evaluated by Machine.Step
// relative to one gate of a full Machine.Eval+Clock pass at the batch's
// width. A fresh batch steps while its injected instructions × R stay
// below the program's instruction count (Step evaluates every injected
// instruction every cycle), and a stepping batch takes the full pass
// from the next window on once a window averaged more than
// instructions/R evaluations per cycle. Measured on a 2-core host, with
// every lane live, a cycle's step time over its evaluations against a
// full pass's time over its gates:
//
//   - W=8, every full batch of the 6.8k-gate benchmark design: 45–76 ns
//     against 13–19 ns a gate, R = 3.5–4.1; R8 = 4. The paper circuits'
//     batches inject at least 1/2.3 of their instructions and keep the
//     full pass.
//   - W=4: 38–55 ns against 11–13 ns on the same design, R = 3.3–5.2,
//     and 3.7 on b04. b04's re-planned W=4 batches inject 72–79 of its
//     317 instructions and step slower than their full pass, so R4 = 8.
//   - W=1: R = 5.5–7.6 on the same design and 10–11 on b04, whose
//     values fit in L1 (4–5 ns a gate). b04's ragged campaign tails
//     inject 8–9 of its instructions, so R1 = 64 keeps them on the full
//     pass; the benchmark design's W=1 tails (at most 64 injected of
//     6494, about 16 evaluations per cycle) still step.
func stepCost(words int) int {
	switch words {
	case 4:
		return 8
	case 8:
		return 4
	}
	return 64
}

// tailWidth picks the cheapest lane width for an n-fault tail: the
// width minimizing batch count × per-pass cost, preferring narrower
// machines on ties. A 55-fault tail runs on a one-word machine instead of
// wasting seven dead words per pass of an eight-word one.
func tailWidth(n int) int {
	best, bestCost := 1, (n+63)/64*passCost(1)
	for _, w := range []int{4, 8} {
		if c := (n + w*64 - 1) / (w * 64) * passCost(w); c < bestCost {
			best, bestCost = w, c
		}
	}
	return best
}

// planSeqChunks carves the include list into lane batches: full W=8
// batches, then ragged-tail batches at whatever width simulates the
// remainder cheapest. The returned slice is session-owned scratch,
// overwritten by the next plan (the re-planner probes a candidate plan
// at every sequential window start, so this must not allocate warm).
//
//repro:session-owned
func (s *Simulator) planSeqChunks(n int) []seqChunk {
	const L = 8 * 64 // a full batch runs an eight-word machine
	out := s.chunks[:0]
	lo := 0
	for n-lo >= L {
		out = append(out, seqChunk{lo: lo, hi: lo + L, words: 8})
		lo += L
	}
	for lo < n {
		w := tailWidth(n - lo)
		hi := min(lo+w*64, n)
		out = append(out, seqChunk{lo: lo, hi: hi, words: w})
		lo = hi
	}
	s.chunks = out
	return out
}

// planBatches instantiates the chunk plan as stateful session batches.
// Batch shells come from the per-width shell pools, so a plan over
// recycled shells allocates nothing.
func (s *Simulator) planBatches(include []int) []seqBatch {
	chunks := s.planSeqChunks(len(include))
	out := s.batches[:0]
	for _, c := range chunks {
		var b seqBatch
		switch c.words {
		case 4:
			b = newBatch[lane.W4](s, include[c.lo:c.hi])
		case 8:
			b = newBatch[lane.W8](s, include[c.lo:c.hi])
		default:
			b = newBatch[lane.W1](s, include[c.lo:c.hi])
		}
		out = append(out, b)
	}
	return out
}

// seqBatch is one live parallel-fault batch carried across Appends. Each
// implementation is the width-stenciled state: the fault list (one per
// lane), the active-lane mask, and the armed fault machine whose
// flip-flop state continues exactly where the last Append stopped.
type seqBatch interface {
	// run advances the batch over the window on the given pool worker,
	// adding its batch-cycles to st.
	run(s *Simulator, worker, base int, ctx context.Context, st *PathStats) error
	width() int
	retired() bool
	// arm draws and injects the batch machine if the batch is unarmed and
	// not retired, and picks the path it starts on. Serial session code
	// only — it touches the machine free lists, which run() (on a pool
	// worker) must not.
	arm(s *Simulator)
	// stepping reports whether the batch's next window takes the event
	// step; if so it first sizes its width's per-worker Step scratch to
	// the pool. Serial session code only.
	stepping(s *Simulator, workers int) bool
	// resetState rewinds the armed machine to power-on reset, keeping the
	// injected faults and drop masks (the AppendTest discipline).
	resetState()
	// dropLane frees the lane holding the given fault without recording a
	// detection; it reports whether the fault was this batch's. Serial
	// session code only (it may release the machine).
	dropLane(s *Simulator, fault int) bool
	// release returns the batch machine, if any, to the session free list.
	// Serial session code only.
	release(s *Simulator)
	// armed reports whether the batch machine is drawn and injected (a
	// retired or not-yet-run batch reports false).
	armed() bool
	// recycle releases the batch machine and returns the batch shell to
	// the session's per-width shell pool; the batch must already be out
	// of the schedule. Serial session code only.
	recycle(s *Simulator)
	// extractLive packs each still-live lane's flip-flop state into
	// s.surv starting at row idx (lane order == frontier order) and
	// returns the next free row. Serial session code only (re-plan).
	extractLive(s *Simulator, idx int) int
	// implantLive loads rows idx.. of s.surv into lanes 0..n-1 of the
	// armed batch machine and returns the next unread row (a fresh plan
	// has every lane live). Serial session code only (re-plan).
	implantLive(s *Simulator, idx int) int
}

// seqBatchW is the per-width batch state. Each live batch owns its
// machine across Appends: arming (injecting up to W×64 fault sites)
// happens once per session, the machine's flip-flop state carries the
// trace forward for free, and a retiring batch returns its machine to
// the session's per-width free list for the next plan to redraw. The
// per-batch memory (one value array per W×64 faults) is a few kilobytes
// for the benchmark circuits — far cheaper than re-injecting the whole
// batch on every Append, which dominates small sequential circuits under
// fine-grained (segment-sized) appends.
type seqBatchW[W lane.Word] struct {
	faults   []int
	active   W
	injected W                   // lanes whose faults a stepping machine still carries
	m        *netlist.Machine[W] // armed before the first run; nil once retired
	done     bool                // every lane dropped; the batch is retired
	event    bool                // the next window runs Machine.Step, not Eval+Clock
}

func (c *seqBatchW[W]) width() int    { var w W; return len(w) }
func (c *seqBatchW[W]) retired() bool { return c.done }
func (c *seqBatchW[W]) armed() bool   { return c.m != nil }

func (c *seqBatchW[W]) recycle(s *Simulator) {
	c.release(s)
	ws := widthOf[W](s)
	ws.shells = append(ws.shells, c)
}

func (c *seqBatchW[W]) extractLive(s *Simulator, idx int) int {
	for ln := range c.faults {
		if c.active[ln>>6]>>uint(ln&63)&1 == 0 {
			continue
		}
		s.surv[idx] = c.m.LaneStateInto(ln, s.surv[idx])
		idx++
	}
	return idx
}

func (c *seqBatchW[W]) implantLive(s *Simulator, idx int) int {
	for ln := range c.faults {
		c.m.SetLaneState(ln, s.surv[idx])
		idx++
	}
	return idx
}

func (c *seqBatchW[W]) arm(s *Simulator) {
	if c.m != nil || c.done {
		return
	}
	m := getMachine[W](s)
	for ln, fi := range c.faults {
		m.InjectFault(s.faults[fi].Site, lane.Bit[W](ln))
	}
	c.m = m
	c.injected = c.active
	// Every injected instruction is evaluated every cycle, so a batch
	// whose injections alone cost more than a full pass starts on it.
	c.event = m.Injected()*stepCost(len(c.active)) < s.prog.Instructions()
}

func (c *seqBatchW[W]) stepping(s *Simulator, workers int) bool {
	if !c.event {
		return false
	}
	ws := widthOf[W](s)
	for len(ws.steps) < workers {
		ws.steps = append(ws.steps, netlist.NewEventScratch[W](s.prog))
	}
	return true
}

func (c *seqBatchW[W]) resetState() {
	if c.m != nil {
		c.m.Reset()
	}
}

func (c *seqBatchW[W]) release(s *Simulator) {
	if c.m != nil {
		putMachine(s, c.m)
		c.m = nil
	}
}

func (c *seqBatchW[W]) dropLane(s *Simulator, fault int) bool {
	for ln, fi := range c.faults {
		if fi != fault {
			continue
		}
		c.active[ln>>6] &^= 1 << uint(ln&63)
		if lane.None(c.active) {
			c.done = true
			c.release(s)
		}
		return true
	}
	return false
}

// run advances this batch over the new cycles: evaluate each cycle
// against the good trace with per-lane dropping, retiring the batch once
// every lane has dropped (the machine itself is handed back to the free
// list by the serial prune that follows, since run executes on a pool
// worker). The machine continues from its own state, so a chunked run
// replays nothing; arm() has already injected it. Detection indices are
// base plus the local cycle.
func (c *seqBatchW[W]) run(s *Simulator, worker, base int, ctx context.Context, st *PathStats) error {
	if c.done {
		return nil // retired via dropLane; prune removes it next
	}
	if c.event {
		return c.runSteps(s, widthOf[W](s).steps[worker], base, ctx, st)
	}
	m := c.m
	// The drop masks live in registers/stack for the window (the batch
	// field would force a memory round-trip per word per cycle on the
	// hottest loop in the simulator) and are written back on exit.
	active := c.active
	faults := c.faults
	detected := s.detected
	goodPOs := s.goodPOs
	pi := widthOf[W](s).stim
	for cyc := range pi {
		if ctx != nil && cyc&31 == 31 && ctx.Err() != nil {
			c.active = active
			return ctx.Err()
		}
		badOut := m.Eval(pi[cyc])
		good := goodPOs[cyc]
		anyActive := false
		for k := 0; k < len(active); k++ {
			if active[k] == 0 {
				continue // every lane of this word already dropped
			}
			var d uint64
			for po := range badOut {
				d |= badOut[po][k] ^ good[po]
			}
			d &= active[k]
			for d != 0 {
				ln := bits.TrailingZeros64(d)
				detected[faults[k*64+ln]] = base + cyc
				d &^= 1 << uint(ln)
				active[k] &^= 1 << uint(ln)
			}
			if active[k] != 0 {
				anyActive = true
			}
		}
		if !anyActive {
			c.active = active
			c.done = true
			st.FullCycles += cyc + 1
			return nil
		}
		m.Clock()
	}
	c.active = active
	st.FullCycles += len(pi)
	return nil
}

// runSteps is run's event-driven loop: each cycle is one Machine.Step
// against the window's good net rows in place of Eval+Clock, with the
// same per-lane dropping (a step's difference lanes are already
// confined to the live ones). The lanes dropped since the last window
// (detected or retired) first give up their injections, so Step stops
// scheduling their sites. A batch whose window averaged more than
// Instructions()/stepCost evaluations per cycle costs more than the
// full pass and takes it from the next window on; it stays there, since
// a full pass measures no activity (a re-plan's fresh batches choose
// again).
func (c *seqBatchW[W]) runSteps(s *Simulator, sc *netlist.EventScratch[W], base int, ctx context.Context, st *PathStats) error {
	m := c.m
	if dead := lane.AndNot(c.injected, c.active); !lane.None(dead) {
		m.ClearFaultLanes(dead)
		c.injected = c.active
	}
	active := c.active
	faults := c.faults
	detected := s.detected
	good := s.goodNet
	evals := 0
	for cyc := range good {
		if ctx != nil && cyc&31 == 31 && ctx.Err() != nil {
			c.active = active
			return ctx.Err()
		}
		d, n := m.Step(good[cyc], active, sc)
		evals += n
		anyActive := false
		for k := 0; k < len(active); k++ {
			for x := d[k]; x != 0; x &= x - 1 {
				detected[faults[k*64+bits.TrailingZeros64(x)]] = base + cyc
			}
			active[k] &^= d[k]
			if active[k] != 0 {
				anyActive = true
			}
		}
		if !anyActive {
			c.active = active
			c.done = true
			st.EventCycles += cyc + 1
			st.EventEvals += evals
			return nil
		}
	}
	c.active = active
	st.EventCycles += len(good)
	st.EventEvals += evals
	c.event = evals*stepCost(len(active)) <= len(good)*s.prog.Instructions()
	return nil
}

// appendSequential is the parallel-fault path the lane vectors were built
// for: the live frontier is held as W×64-fault batches, one fault machine
// per lane, against broadcast stimuli. A lane is dropped at its first
// detection; a batch is retired once every lane has dropped, and later
// Appends skip it entirely. Batches are independent, so they fan out over
// the worker pool. The good trace continues on the session's persistent
// single-word machine (every lane of a broadcast run is identical) and is
// shared by batches of every width. Each batch runs the window either as
// full Eval+Clock passes or as event-driven Machine.Step cycles against
// the good machine's net values, which are then recorded too (stepCost
// explains the choice). With fromReset (the AppendTest discipline) every
// machine — the good one and each live batch's — restarts from power-on
// before the window; arming costs are still paid only once per session.
func (s *Simulator) appendSequential(tests []Pattern, fromReset bool) error {
	if len(s.batches) == 0 {
		// No live fault has a lane, and none gets one before the next
		// reset, so the good trace need not advance either. A window
		// with live faults still reports: zero batches of zero done.
		if len(s.live) > 0 {
			s.cfg.Report(0, 0)
		}
		return nil
	}
	ctx := s.cfg.Ctx
	if fromReset {
		s.goodM.Reset()
		for _, b := range s.batches {
			b.resetState()
		}
	}
	// Arm unarmed batches (first window after a plan), size the Step
	// scratch of the widths that step and materialize the broadcast
	// stimuli per width actually scheduled — all serially, before the
	// fan-out, because arming touches the machine free lists. A stale
	// wider stimulus is simply not read once its last batch retires.
	workers := par.Workers(s.cfg.Workers, len(s.batches))
	need4, need8, stepping := false, false, false
	for _, b := range s.batches {
		if b.retired() {
			continue
		}
		b.arm(s)
		if b.stepping(s, workers) {
			stepping = true
		}
		switch b.width() {
		case 4:
			need4 = true
		case 8:
			need8 = true
		}
	}
	if need4 {
		broadcast[lane.W4](s, tests)
	}
	if need8 {
		broadcast[lane.W8](s, tests)
	}

	// The good trace: PO rows for the full pass and, when some batch
	// steps, every net's value as one bit per cycle.
	pi1 := broadcast[lane.W1](s, tests)
	goodPOs := engine.Grow(s.goodPOs, len(tests))
	s.goodPOs = goodPOs
	goodNet := s.goodNet[:0]
	if stepping {
		goodNet = engine.Grow(s.goodNet, len(tests))
		s.goodNet = goodNet
	}
	for cyc, words := range pi1 {
		if ctx != nil && cyc&31 == 31 && ctx.Err() != nil {
			return ctx.Err()
		}
		out := s.goodM.Eval(words)
		row := engine.Grow(goodPOs[cyc], len(out))
		for po := range out {
			row[po] = out[po][0]
		}
		goodPOs[cyc] = row
		if stepping {
			goodNet[cyc] = s.goodM.LaneValuesInto(0, goodNet[cyc])
		}
		s.goodM.Clock()
	}

	base := s.applied
	total := len(s.batches)
	if workers <= 1 {
		// Serial fast path: the common steady state of an incremental
		// campaign is one or two live batches, where the pool fan-out
		// (closures, coordination) is the only allocation left — a warm
		// single-batch Append is allocation-free through here.
		for bi, b := range s.batches {
			if ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			if err := b.run(s, 0, base, ctx, &s.paths); err != nil {
				return err
			}
			s.cfg.Report(bi+1, total)
		}
		return nil
	}
	errs := engine.GrowZero(s.errs, len(s.batches))
	s.errs = errs
	tally := engine.GrowZero(s.tally, len(s.batches))
	s.tally = tally
	err := par.IndexedCtx(ctx, len(s.batches), s.cfg.Workers, func(w, bi int) {
		errs[bi] = s.batches[bi].run(s, w, base, ctx, &tally[bi])
	}, func(done int) { s.cfg.Report(done, total) })
	for _, t := range tally {
		s.paths.FullCycles += t.FullCycles
		s.paths.EventCycles += t.EventCycles
		s.paths.EventEvals += t.EventEvals
	}
	if err != nil {
		return err
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// --- reference engines -------------------------------------------------------

// appendCombinationalRef is the single-fault reference: one Evaluator
// pass per live fault per batch of the new patterns, strictly serial.
// Kept as the differential baseline for the compiled engine.
func (s *Simulator) appendCombinationalRef(tests []Pattern) error {
	batchPIs := s.packPatternBatchesRef(tests)
	batchGood := make([][]uint64, len(batchPIs))
	for b, words := range batchPIs {
		goodOut, err := s.good.Eval(words)
		if err != nil {
			return err
		}
		batchGood[b] = append([]uint64(nil), goodOut...)
	}
	base := s.applied
	total := len(s.live)
	for j, fi := range s.live {
		if err := s.cfg.Cancelled(); err != nil {
			return err
		}
	batches:
		for b, words := range batchPIs {
			lo := b * 64
			// One tail-mask implementation for both engines: the
			// reference's single-word mask is lane.FirstN at width 1.
			laneMask := lane.FirstN[lane.W1](len(tests) - lo)[0]
			badOut := s.bad.EvalWith(words, s.faults[fi].Site, allLanes)
			var diff uint64
			for po := range badOut {
				diff |= (badOut[po] ^ batchGood[b][po]) & laneMask
			}
			if diff != 0 {
				s.detected[fi] = base + lo + bits.TrailingZeros64(diff)
				break batches
			}
		}
		s.cfg.Report(j+1, total)
	}
	return nil
}

// packPatternBatchesRef packs the test set into 64-pattern PI word
// batches for the single-word Evaluator (bit t of every word is pattern
// lo+t).
func (s *Simulator) packPatternBatchesRef(tests []Pattern) [][]uint64 {
	nBatches := (len(tests) + 63) / 64
	out := make([][]uint64, nBatches)
	for b := 0; b < nBatches; b++ {
		lo := b * 64
		hi := min(lo+64, len(tests))
		words := make([]uint64, len(s.nl.PIs))
		for pi := range words {
			var w uint64
			for ln, t := lo, 0; ln < hi; ln, t = ln+1, t+1 {
				if tests[ln][pi] != 0 {
					w |= 1 << uint(t)
				}
			}
			words[pi] = w
		}
		out[b] = words
	}
	return out
}

// appendSequentialRef is the single-fault reference: each live fault
// replays a window on its own Evaluator from power-on reset, broadcast
// across all lanes, strictly serial. In the continuous (Append)
// discipline the session accumulates the applied stimulus and the window
// is the whole accumulated sequence — replaying the prefix keeps the
// reference engine trivially correct (the simulation is deterministic,
// and a live fault cannot be detected inside the prefix it already
// survived) at the cost the reference engine always pays; it exists for
// differential testing, not speed. In the reset-per-test (AppendTest)
// discipline the window is just the new test, because every test starts
// from power-on anyway.
func (s *Simulator) appendSequentialRef(tests []Pattern, fromReset bool) error {
	window := tests
	base := s.applied
	if !fromReset {
		for _, p := range tests {
			s.refSeq = append(s.refSeq, append(Pattern(nil), p...))
		}
		window = s.refSeq
		base = 0
	}
	piWords := make([][]uint64, len(window))
	for cyc, p := range window {
		words := make([]uint64, len(s.nl.PIs))
		for pi, v := range p {
			if v != 0 {
				words[pi] = allLanes
			}
		}
		piWords[cyc] = words
	}
	goodPOs := make([][]uint64, len(window))
	s.good.Reset()
	for cyc, words := range piWords {
		out, err := s.good.Eval(words)
		if err != nil {
			return err
		}
		goodPOs[cyc] = append([]uint64(nil), out...)
		s.good.Clock()
	}
	total := len(s.live)
	for j, fi := range s.live {
		if err := s.cfg.Cancelled(); err != nil {
			return err
		}
		f := s.faults[fi]
		s.bad.Reset()
		for cyc := range window {
			badOut := s.bad.EvalWith(piWords[cyc], f.Site, allLanes)
			var diff uint64
			for po := range badOut {
				diff |= badOut[po] ^ goodPOs[cyc][po]
			}
			if diff != 0 {
				s.detected[fi] = base + cyc
				break
			}
			s.bad.ClockWith(f.Site, allLanes)
		}
		s.cfg.Report(j+1, total)
	}
	return nil
}
