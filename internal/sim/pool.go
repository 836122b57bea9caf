// Mutant-parallel batch execution. Scoring a mutant population is
// embarrassingly parallel — every mutant runs the same stimulus against
// the same reference trace — so the pool packs mutants into lane batches
// of laneWords×64 machines, fans the batches out over a fixed worker
// count, and steps each batch through the sequence in lockstep: the
// reference output row stays hot across the whole batch, each mutant
// drops at its first divergence (early kill), and a batch exits as soon
// as every lane has dropped. Results are written by index, so the outcome
// is deterministic and independent of both the worker count and the lane
// width.
package sim

import (
	"context"
	"fmt"
	"math/bits"

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
// before it scores. The engine options size the pool (Workers) and the
// lane batches (LaneWords×64 machines per pool job, 0 selecting
// lane.DefaultWords); each batch is stepped in lockstep with early
// per-mutant dropping and early batch exit, the progress hook fires per
// completed batch, and a cancelled Ctx aborts between batches (and
// between cycles inside a batch) with the context's error. A machine
// that fails mid-sequence reports its error and drops; the rest of its
// batch keeps scoring. Within a call every machine belongs to exactly one
// lane batch, so concurrent pool jobs never share one; the machines are
// free for the caller to reuse as soon as the call returns. The result
// slice is freshly allocated and caller-owned.
func FirstKillBatchMachines(machines []*Machine, seq Sequence, goodOuts []Vector, opts engine.Options) ([]int, error) {
	words, err := opts.Lanes()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	L := words * 64
	out := make([]int, len(machines))
	errs := make([]error, len(machines))
	nBatches := (len(machines) + L - 1) / L
	ctxErrs := make([]error, nBatches)
	err = par.IndexedCtx(opts.Ctx, nBatches, opts.Workers, func(_, b int) {
		lo := b * L
		hi := min(lo+L, len(machines))
		sc := lockstepPool.Get()
		ctxErrs[b] = firstKillLockstep(machines[lo:hi], seq, goodOuts, out[lo:hi], errs[lo:hi], sc, opts.Ctx)
		lockstepPool.Put(sc)
	}, func(done int) { opts.Report(done, nBatches) })
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	for _, e := range ctxErrs {
		if e != nil {
			return nil, fmt.Errorf("sim: %w", e)
		}
	}
	if err := firstBatchError(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// lockstepScratch is the per-batch scratch of one lockstep job: the
// output vector every lane steps into and the per-lane alive mask. Jobs
// land on arbitrary pool workers, so the buffers cross goroutines and
// are recycled through an engine.Pool — each job owns its scratch
// exclusively between Get and Put (the -race pool tests pin this).
type lockstepScratch struct {
	out   Vector
	alive []uint64
}

var lockstepPool = engine.NewPool(func() *lockstepScratch { return &lockstepScratch{} })

// firstKillLockstep scores one lane batch: every machine advances one
// cycle before any machine sees the next, so the reference row goodOuts
// is read once per cycle for the whole batch. alive is a per-lane mask;
// killed and failed lanes drop out of the stepping loop immediately, and
// the batch returns once no lane is alive.
func firstKillLockstep(machines []*Machine, seq Sequence, goodOuts []Vector, out []int, errs []error, sc *lockstepScratch, ctx context.Context) error {
	maxOuts := 0
	for j, m := range machines {
		m.Reset()
		out[j] = -1
		maxOuts = max(maxOuts, m.p.NumOutputs())
	}
	sc.out = engine.Grow(sc.out, maxOuts)
	alive := engine.GrowZero(sc.alive, (len(machines)+63)/64)
	sc.alive = alive
	for j := range machines {
		alive[j>>6] |= 1 << uint(j&63)
	}
	remaining := len(machines)
	for cyc, v := range seq {
		if ctx != nil && cyc&31 == 31 && ctx.Err() != nil {
			return ctx.Err()
		}
		for k := range alive {
			rest := alive[k]
			for rest != 0 {
				bit := uint(bits.TrailingZeros64(rest))
				rest &^= 1 << bit
				j := k*64 + int(bit)
				m := machines[j]
				got := sc.out[:m.p.NumOutputs()]
				if err := m.StepInto(v, got); err != nil {
					errs[j] = err
					alive[k] &^= 1 << bit
					remaining--
					continue
				}
				want := goodOuts[cyc]
				for o := range got {
					if !got[o].Equal(want[o]) {
						out[j] = cyc
						alive[k] &^= 1 << bit
						remaining--
						break
					}
				}
			}
		}
		if remaining == 0 {
			return nil
		}
	}
	return nil
}
