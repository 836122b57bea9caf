// Buffer-ownership discipline shared by every engine session.
//
// The engines are campaign loops: the same Append / AppendTest / Generate
// round runs thousands of times against one compiled model, so per-round
// buffer churn — not working-set size — is what makes a long-running
// campaign GC-bound. Every session type therefore follows one contract:
//
//   - A session owns its scratch. Stimulus broadcasts, good-trace rows,
//     snapshot buffers, candidate segments, PODEM decision stacks and
//     armed machines are allocated once, grown to the high-water mark,
//     and recycled across rounds (Grow is the canonical primitive).
//   - Results a caller may retain are freshly allocated or documented as
//     session-owned views. A view is valid until the next call on the
//     session; retaining callers clone it (faultsim.Result.Clone).
//   - Scratch a pool job uses is per worker, indexed by the worker
//     number par.IndexedCtx passes: a worker runs its jobs one at a
//     time, so no two live jobs ever share a buffer. The -race suites
//     exercise this.
//
// One-shot conveniences (Run, RunOn, MutationTests) stay caller-owned end
// to end: they clone whatever the underlying session would have recycled.
package engine

// Grow returns a slice of length n backed by buf's storage when capacity
// allows, allocating (with slack) only past the high-water mark. Element
// values are stale, not zeroed — callers overwrite every element. It is
// the canonical reuse primitive of the session scratch discipline.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return append(buf[:cap(buf)], make([]T, n-cap(buf))...)
}

// GrowZero is Grow with every element reset to the zero value, for
// accumulator buffers where stale state would alias previous rounds.
func GrowZero[T any](buf []T, n int) []T {
	buf = Grow(buf, n)
	var zero T
	for i := range buf {
		buf[i] = zero
	}
	return buf
}
