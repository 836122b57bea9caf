// Package engine defines the execution-option surface every simulation
// engine in this repository shares. The fault simulator (faultsim), the
// mutant scorer (mutscore), the behavioral batch pool (sim) and the
// test generator (tpg) all run batched work over the same worker-pool /
// lane-vector machinery, so their configuration knobs are the same four
// things: a pool size, a lane width, a progress hook and a cancellation
// context. Options defines that knob set once; the per-package Configs
// embed it, which keeps the semantics (and the doc comments) from
// drifting apart.
package engine

import (
	"context"

	"repro/internal/lane"
)

// Stats is one progress report from a running engine operation. The
// unit of work is operation-specific — fault batches for the sequential
// fault simulator, undetected faults for the combinational one, mutant
// lane batches for scoring, targets for test generation — but Done/Total
// always describe the current call's completion fraction.
type Stats struct {
	Done  int // work units completed so far
	Total int // work units this operation was dispatched with
}

// Options is the execution configuration shared by every engine. The
// zero value is the fast default: compiled engines, all cores, automatic
// lane width, no progress reporting, never cancelled. faultsim.Config,
// mutscore.Config, core.Config and tpg.Options embed it, so the knobs
// read (and validate) identically everywhere.
type Options struct {
	// Workers sizes the engine worker pool: 0 uses all cores (compiled
	// engine), n > 1 uses exactly n workers (compiled engine), and 1
	// selects the serial reference engine kept for differential testing
	// (the single-fault Evaluator path in faultsim, the AST-interpreter
	// path in mutscore). Results are identical for every setting — the
	// parity tests and internal/difftest pin this.
	Workers int
	// LaneWords selects the compiled engines' lane vector width in
	// 64-bit words: 1, 4 or 8 force 64, 256 or 512 lanes (fault machines,
	// packed patterns, or lockstep mutants) per pass, and 0 picks a
	// per-engine default — lane.DefaultWords for mutant scoring, a
	// topology-dependent width for fault simulation (8 for sequential
	// circuits, where wide vectors amortize the per-gate decode over more
	// fault machines; 1 for combinational ones, where each live fault
	// propagates through only the gates it disturbs and 64-pattern
	// batches drop detected faults soonest). The serial
	// reference engines (Workers == 1) ignore this knob. Results are
	// identical for every setting.
	LaneWords int
	// Progress, when non-nil, receives completion counts while a batch
	// operation runs. It may be called concurrently from pool workers,
	// so it must be safe for concurrent use, and it should return
	// quickly — it runs on the hot path.
	Progress func(Stats)
	// Ctx cancels long-running operations cooperatively: engines poll it
	// at batch (and, inside long batches, cycle-block) boundaries and
	// return its error once it is done. Nil means never cancelled.
	Ctx context.Context
}

// Serial reports whether the serial reference engine is selected
// (Workers == 1).
func (o Options) Serial() bool { return o.Workers == 1 }

// Lanes resolves the LaneWords knob against the generic package default
// (0 selects lane.DefaultWords) and rejects unsupported widths. Engines
// with a topology-dependent default validate through Lanes and then
// override the zero value themselves.
func (o Options) Lanes() (int, error) { return lane.Resolve(o.LaneWords) }

// Context returns the cancellation context, substituting a background
// context when none is set.
func (o Options) Context() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// Cancelled returns the context's error if the options carry a cancelled
// (or otherwise done) context, and nil otherwise. Engines poll it at
// work-unit boundaries; it never blocks.
func (o Options) Cancelled() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// Report invokes the progress hook, if one is set.
func (o Options) Report(done, total int) {
	if o.Progress != nil {
		o.Progress(Stats{Done: done, Total: total})
	}
}
