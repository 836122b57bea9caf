// Package engine defines the execution-option surface every simulation
// engine in this repository shares. The fault simulator (faultsim), the
// mutant scorer (mutscore), the behavioral batch pool (sim) and the
// test generator (tpg) all run batched work on the same worker pool,
// so their configuration knobs are the same three things: a pool size,
// a progress hook and a cancellation context. Lane widths are not
// among them: the fault simulator picks its own from the netlist's
// topology and fault count. Options defines that knob set once; the
// per-package Configs embed it, which keeps the semantics (and the doc
// comments) from drifting apart.
package engine

import "context"

// Stats is one progress report from a running engine operation. The
// unit of work is operation-specific — fault batches for the sequential
// fault simulator, undetected faults for the combinational one, mutants
// for scoring, targets for test generation — but Done/Total always
// describe the current call's completion fraction.
type Stats struct {
	Done  int // work units completed so far
	Total int // work units this operation was dispatched with
}

// Options is the execution configuration shared by every engine. The
// zero value is the fast default: compiled engines, all cores, no
// progress reporting, never cancelled. faultsim.Config, mutscore.Config,
// core.Config and tpg.Options embed it, so the knobs read identically
// everywhere.
type Options struct {
	// Workers sizes the engine worker pool: 0 uses all cores (compiled
	// engine), n > 1 uses exactly n workers (compiled engine), and 1
	// selects the serial reference engine kept for differential testing
	// (the single-fault Evaluator path in faultsim, the AST-interpreter
	// path in mutscore). core.Flow sizes its own concurrent sections
	// with it too: that many operator-profile jobs, and a scoring lane
	// beside test generation when it resolves to more than one worker.
	// Results are identical for every setting — the parity tests and
	// internal/difftest pin this.
	Workers int
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
