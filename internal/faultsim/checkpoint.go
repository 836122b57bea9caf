package faultsim

import "fmt"

// Checkpoint is a serializable snapshot of a simulation session at a
// window boundary: how many patterns/cycles have been applied, the
// cumulative first-detection profile, and the live frontier. Together
// with the applied stimulus (which campaign jobs re-derive from their
// seed rather than store), it is everything needed to resume the session
// bit-identically — the machine state of the surviving fault lanes is
// reconstructed by replaying the applied prefix over the frontier subset
// only, which is cheap precisely because long campaigns shrink the
// frontier early.
//
// Checkpoints cover the continuous (Append) application discipline; a
// session in the reset-per-test (AppendTest) discipline has no
// cross-test machine state worth snapshotting — resume it by replaying
// whole tests.
type Checkpoint struct {
	// Applied is the number of patterns (combinational) or cycles
	// (sequential) applied when the checkpoint was taken.
	Applied int
	// FirstDetected is the cumulative first-detection profile over the
	// session's full fault list (global indices, -1 for undetected), as
	// Result.FirstDetected.
	FirstDetected []int
	// Frontier lists the fault indices still under simulation.
	Frontier []int
}

// Checkpoint snapshots the session state. The returned checkpoint is
// caller-owned and detached — serializing it after the window that
// produced it is safe at any later time.
func (s *Simulator) Checkpoint() *Checkpoint {
	return &Checkpoint{
		Applied:       s.applied,
		FirstDetected: append([]int(nil), s.detected...),
		Frontier:      s.Frontier(),
	}
}

// Restore rebuilds the session at a checkpoint taken by an equivalent
// simulator (same netlist, same fault list, any engine configuration —
// results are setting-independent) given the stimulus that had been
// applied when the checkpoint was taken. The frontier's machine state is
// reconstructed by replaying that stimulus over the frontier subset
// alone: a frontier fault by definition survived the prefix, so the
// replay detects nothing and leaves every surviving lane's flip-flop
// state exactly where the interrupted session left it; detections the
// checkpoint already recorded are merged back in. A later Append
// continues the campaign bit-identically to one that was never
// interrupted — the kill/resume legs in internal/difftest pin this.
//
// Restore rejects a checkpoint whose shape does not fit the session: a
// fault count or applied count that differs, a frontier index out of
// range or also recorded as detected, or a detection index outside
// [-1, Applied). It then verifies the replay against the checkpoint and
// fails (leaving the session reset) if any frontier fault is detected by
// the prefix — the signature of a checkpoint paired with the wrong
// stimulus.
func (s *Simulator) Restore(ck *Checkpoint, applied []Pattern) error {
	if ck == nil {
		return fmt.Errorf("faultsim: nil checkpoint")
	}
	if len(ck.FirstDetected) != len(s.faults) {
		return fmt.Errorf("faultsim: checkpoint covers %d faults, session has %d",
			len(ck.FirstDetected), len(s.faults))
	}
	if len(applied) != ck.Applied {
		return fmt.Errorf("faultsim: checkpoint applied %d patterns, got %d to replay",
			ck.Applied, len(applied))
	}
	for fi, d := range ck.FirstDetected {
		if d < -1 || d >= ck.Applied {
			return fmt.Errorf("faultsim: checkpoint detects fault %d at %d, outside [-1,%d)",
				fi, d, ck.Applied)
		}
	}
	for _, fi := range ck.Frontier {
		if fi < 0 || fi >= len(s.faults) {
			return fmt.Errorf("faultsim: checkpoint frontier index %d out of range [0,%d)",
				fi, len(s.faults))
		}
		if ck.FirstDetected[fi] >= 0 {
			return fmt.Errorf("faultsim: checkpoint lists fault %d both detected and on the frontier", fi)
		}
	}
	frontier := ck.Frontier
	if frontier == nil {
		// A decoded empty frontier may arrive nil; RunOn(nil) means "the
		// whole fault list", which is not what an exhausted campaign wants.
		frontier = []int{}
	}
	res, err := s.RunOn(applied, frontier)
	if err != nil {
		return err
	}
	for _, fi := range ck.Frontier {
		if res.FirstDetected[fi] >= 0 {
			s.Reset()
			return fmt.Errorf("faultsim: frontier fault %d detected at %d during checkpoint replay; checkpoint does not match the stimulus",
				fi, res.FirstDetected[fi])
		}
	}
	// Merge the detections recorded before the checkpoint: those faults
	// are excluded from the restored subset session, so the replay left
	// them at -1.
	for i, d := range ck.FirstDetected {
		if d >= 0 {
			s.detected[i] = d
		}
	}
	return nil
}
