package faultsim

import (
	"bytes"
	"encoding/gob"
	"slices"
	"testing"

	"repro/internal/circuits"
	"repro/internal/synth"
)

// restoreCycles is the fixed stimulus length FuzzRestore replays
// checkpoints against.
const restoreCycles = 256

// encodeCheckpoint gob-encodes a checkpoint as the campaign's
// CheckpointStore writes it.
func encodeCheckpoint(f *testing.F, ck *Checkpoint) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRestore feeds arbitrary bytes, gob-decoded into a Checkpoint as
// CheckpointStore.Load decodes its files, to Restore on a b03 session
// with a fixed 256-cycle stimulus. Restore must never panic. When it
// accepts a checkpoint, the session must stand exactly there: Applied
// and the first-detection profile are the checkpoint's, Frontier lists
// its frontier, and a further Append succeeds. Seeds: genuine
// checkpoints taken after 64 and 128 cycles, and corrupt ones.
func FuzzRestore(f *testing.F) {
	nl, err := synth.Synthesize(circuits.MustLoad("b03"))
	if err != nil {
		f.Fatal(err)
	}
	stim := randPatterns(len(nl.PIs), restoreCycles, 29)
	s, err := New(nl, nil)
	if err != nil {
		f.Fatal(err)
	}
	var genuine []*Checkpoint
	for _, at := range []int{64, 128} {
		if _, err := s.Run(stim[:at]); err != nil {
			f.Fatal(err)
		}
		ck := s.Checkpoint()
		genuine = append(genuine, ck)
		f.Add(encodeCheckpoint(f, ck))
	}
	for _, ck := range genuine {
		if err := s.Restore(ck, stim[:ck.Applied]); err != nil {
			f.Fatalf("genuine checkpoint at %d rejected: %v", ck.Applied, err)
		}
	}
	ck := genuine[0]
	raw := encodeCheckpoint(f, ck)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte{})
	corrupt := func(edit func(c *Checkpoint)) {
		c := &Checkpoint{
			Applied:       ck.Applied,
			FirstDetected: slices.Clone(ck.FirstDetected),
			Frontier:      slices.Clone(ck.Frontier),
		}
		edit(c)
		f.Add(encodeCheckpoint(f, c))
	}
	corrupt(func(c *Checkpoint) { c.Applied = restoreCycles + 1 })
	corrupt(func(c *Checkpoint) { c.Frontier = append(c.Frontier, c.Frontier[0]) })
	corrupt(func(c *Checkpoint) { c.Frontier = append(c.Frontier, -1) })
	corrupt(func(c *Checkpoint) { c.FirstDetected[c.Frontier[0]] = 3 })
	corrupt(func(c *Checkpoint) { c.FirstDetected = c.FirstDetected[:10] })
	corrupt(func(c *Checkpoint) { c.Applied = 0 })

	f.Fuzz(func(t *testing.T, data []byte) {
		ck := new(Checkpoint)
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(ck); err != nil {
			return
		}
		s, err := New(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		applied := stim
		if ck.Applied >= 0 && ck.Applied <= len(stim) {
			applied = stim[:ck.Applied]
		}
		if err := s.Restore(ck, applied); err != nil {
			return
		}
		if s.Applied() != ck.Applied {
			t.Fatalf("Applied() = %d after restoring a checkpoint at %d", s.Applied(), ck.Applied)
		}
		if !slices.Equal(s.Current().FirstDetected, ck.FirstDetected) {
			t.Fatalf("restored profile differs from the checkpoint's")
		}
		if front := s.Frontier(); len(front) != len(ck.Frontier) || (len(front) > 0 && !slices.Equal(front, ck.Frontier)) {
			t.Fatalf("Frontier() = %v, checkpoint frontier %v", front, ck.Frontier)
		}
		if _, err := s.Append(stim[:16]); err != nil {
			t.Fatalf("Append after Restore: %v", err)
		}
	})
}
