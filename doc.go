// Package repro is a from-scratch Go reproduction of "Mutation Sampling
// Technique for the Generation of Structural Test Data" (Scholivé,
// Beroulle, Robach, Flottes, Rouzeyre — DATE 2005).
//
// The library generates validation data for behavioral hardware
// descriptions by mutation testing, re-uses that data as a free initial
// test set for gate-level stuck-at faults, and — the paper's contribution
// — samples the mutant population *test-oriented*: each mutation
// operator's class is sampled in proportion to its measured stuck-at
// fault-coverage efficiency (NLFCE) instead of uniformly.
//
// Both simulation substrates run on compiled engines. Behavioral mutant
// scoring runs one pool job per compiled mutant machine; gate-level
// fault simulation executes over multi-word lane vectors (internal/lane:
// W×64 lanes per pass, W ∈ {1,4,8}), so one pass carries up to 512
// fault machines; the fault simulator picks every width itself. Every
// engine Config embeds the shared engine.Options surface (Workers, a
// progress hook and context cancellation); Workers:1 is the pinned
// serial reference every configuration is differentially tested
// against (internal/difftest).
//
// The simulation surface is session-based: faultsim.Simulator.Append
// extends an applied sequence incrementally (bit-identical to a one-shot
// Run of the concatenation, simulating only the live fault frontier over
// the new cycles), AppendTest applies independent power-on tests against
// the same shrinking frontier (the ATPG drop-sim discipline), and
// tpg.Session compiles a mutant population once and runs arbitrarily
// many generation campaigns over its subsets. Each finished campaign
// sequence is fault-simulated once, by core.Flow.FaultSim. See the
// "Sessions and incremental simulation" section of README.md.
//
// Sessions own their scratch: a warm round reuses buffers grown on the
// session (internal/engine's Grow/GrowZero primitives), and a worker
// pool's jobs use per-worker scratch, so steady-state rounds allocate
// nothing. One-shot results (Run, RunOn,
// Generate, MutationTests) are caller-owned; incremental results
// (Append, AppendTest) are session-owned views overwritten by the next
// call — Clone them to retain. The contract is stated in internal/engine
// and the "Memory discipline" sections of README.md and ARCHITECTURE.md.
//
// These contracts are machine-checked: internal/analysis implements four
// //repro: annotation-driven analyzers (sessionview, hotalloc,
// determinism, ctxpoll) and cmd/reprolint packages them as a vettool —
// "make lint" runs them over the whole module; see the "Contracts as
// lint" sections of README.md and ARCHITECTURE.md.
//
// Deterministic ATPG (internal/atpg, PODEM with time-frame expansion)
// runs on the same compiled machinery: netlist.TriExpand builds a
// dual-rail twin that encodes three-valued (0/1/X) logic as plain
// two-valued gates, so one compiled Machine pass evaluates the good and
// faulty planes of up to 32 packed PODEM searches (atpg.Options.PackPairs),
// and atpg.Model compiles the (possibly unrolled) circuit once per depth
// for any number of campaigns. Fault dropping between PODEM targets is
// an incremental fault-sim session with batch-level retirement, driven
// by the one commit closure of the generation loop that combinational
// and sequential models share, whichever target driver runs. Workers:1
// runs the serial reference driver — the three-valued interpreter, one
// target at a time, with faultsim's single-fault reference engine as the
// drop-sim — and every setting emits identical test sets
// (internal/difftest's ATPG parity fuzz).
//
// See README.md for the package inventory, build/test/benchmark entry
// points, the two-engine simulation design and the lane-width guidance;
// ARCHITECTURE.md for the end-to-end map of the compiled-engine stack;
// and bench_test.go for the harness that regenerates every table of the
// paper's evaluation.
package repro
