package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// Digest is the canonical content hasher for Options-bearing configs:
// the campaign service derives its job keys from one. A config writes
// its semantic fields — seeds, horizons, disciplines, shard bounds —
// as labeled values in a fixed order; the label makes the stream
// self-delimiting, so two different field sequences can never collide by
// concatenation.
//
// The embedded engine.Options contributes NOTHING to a digest, by
// design: Workers, Progress and Ctx are execution knobs, and the engine
// contract (pinned by the parity suites and internal/difftest) is that
// results are bit-identical for every setting. Excluding them is
// what lets a result computed under one engine configuration serve a
// request made under any other — the whole point of a content-addressed
// result cache.
type Digest struct {
	h hash.Hash
}

// NewDigest starts a digest for the given kind tag (the job family —
// distinct kinds must never collide even over identical fields).
func NewDigest(kind string) *Digest {
	d := &Digest{h: sha256.New()}
	d.Str("kind", kind)
	return d
}

// Int folds a labeled integer field.
func (d *Digest) Int(label string, v int64) {
	d.label(label)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

// Str folds a labeled string field.
func (d *Digest) Str(label, s string) {
	d.label(label)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(s)))
	d.h.Write(b[:])
	d.h.Write([]byte(s))
}

// Ints folds a labeled integer list (length-prefixed).
func (d *Digest) Ints(label string, vs []int) {
	d.Int(label+"#", int64(len(vs)))
	for _, v := range vs {
		d.Int(label, int64(v))
	}
}

func (d *Digest) label(label string) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(label)))
	d.h.Write(b[:])
	d.h.Write([]byte(label))
}

// Sum returns the hex digest. The Digest must not be written afterwards.
func (d *Digest) Sum() string {
	return hex.EncodeToString(d.h.Sum(nil))
}
