// Mutant-parallel batch execution. Scoring a mutant population is
// embarrassingly parallel — every mutant runs the same stimulus against
// the same reference trace — so the pool runs one job per machine on a
// fixed worker count, and each job stops its machine at the first cycle
// whose outputs differ from the reference (early kill). Results are
// written by index, so the outcome is deterministic and independent of
// the worker count.
package sim

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/hdl"
	"repro/internal/par"
)

// BatchError reports which item of a batch operation failed, so callers
// can attach their own context (mutant descriptions, say) via errors.As.
type BatchError struct {
	Index int // position in the batch
	Err   error
}

func (e *BatchError) Error() string { return fmt.Sprintf("batch item %d: %v", e.Index, e.Err) }

// Unwrap returns the underlying error.
func (e *BatchError) Unwrap() error { return e.Err }

// firstBatchError wraps the lowest-index failure, keeping the reported
// error deterministic under any worker count.
func firstBatchError(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return &BatchError{Index: i, Err: err}
		}
	}
	return nil
}

// CompileBatch compiles circuits concurrently, preserving order. workers
// follows the usual knob convention (<= 0 means all cores).
func CompileBatch(cs []*hdl.Circuit, workers int) ([]*Program, error) {
	progs := make([]*Program, len(cs))
	errs := make([]error, len(cs))
	par.Indexed(len(cs), workers, func(_, i int) {
		progs[i], errs[i] = Compile(cs[i])
	})
	if err := firstBatchError(errs); err != nil {
		return nil, err
	}
	return progs, nil
}

// FirstKillBatchMachines runs every machine against the sequence and
// returns, per machine, the first cycle whose outputs differ from
// goodOuts (the reference circuit's trace over the same sequence), or -1
// if the sequence never distinguishes it. The machines are caller-owned,
// one per program and reused across calls: each is Reset to power-on
// before it scores. Each machine runs in a pool job of its own, so a
// machine may be listed once: two jobs would step it at once. Of the
// engine options the call reads Workers (the pool size), Progress (one
// report per machine scored) and Ctx: a cancelled Ctx aborts between
// machines, and every 32 cycles inside one, and is the call's error
// ahead of any machine's. A machine that fails mid-sequence stops there;
// the lowest-index failure comes back as a *BatchError. The machines are
// free for the caller to reuse as soon as the call returns. The result
// slice is freshly allocated and caller-owned.
func FirstKillBatchMachines(machines []*Machine, seq Sequence, goodOuts []Vector, opts engine.Options) ([]int, error) {
	n := len(machines)
	out := make([]int, n)
	errs := make([]error, n)
	// One step-output buffer per worker: a worker runs its jobs one at a
	// time, so no two live jobs share one.
	bufs := make([]Vector, par.Workers(opts.Workers, n))
	err := par.IndexedCtx(opts.Ctx, n, opts.Workers, func(w, i int) {
		m := machines[i]
		bufs[w] = engine.Grow(bufs[w], m.p.NumOutputs())
		out[i], errs[i] = firstKill(m, seq, goodOuts, bufs[w], opts.Ctx)
	}, func(done int) { opts.Report(done, n) })
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := firstBatchError(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// firstKill scores one machine: it Resets m and steps it through seq
// into got until the outputs first differ from goodOuts, returning that
// cycle, or -1 once the sequence ends. On a cancelled ctx it stops with
// -1 and no error; the pool call returns the context's error instead.
func firstKill(m *Machine, seq Sequence, goodOuts []Vector, got Vector, ctx context.Context) (int, error) {
	m.Reset()
	for cyc, v := range seq {
		if ctx != nil && cyc&31 == 31 && ctx.Err() != nil {
			return -1, nil
		}
		if err := m.StepInto(v, got); err != nil {
			return -1, err
		}
		want := goodOuts[cyc]
		for o := range got {
			if !got[o].Equal(want[o]) {
				return cyc, nil
			}
		}
	}
	return -1, nil
}
