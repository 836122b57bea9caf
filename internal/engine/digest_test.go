package engine

import "testing"

// TestDigestSelfDelimiting pins that labeled fields make the stream
// unambiguous: shifting bytes between adjacent fields, reordering
// fields, or changing the kind tag must change the digest.
func TestDigestSelfDelimiting(t *testing.T) {
	sum := func(build func(d *Digest)) string {
		d := NewDigest("k")
		build(d)
		return d.Sum()
	}
	base := sum(func(d *Digest) { d.Str("a", "xy"); d.Str("b", "z") })
	if got := sum(func(d *Digest) { d.Str("a", "x"); d.Str("b", "yz") }); got == base {
		t.Error("byte shift between fields did not change the digest")
	}
	if got := sum(func(d *Digest) { d.Str("b", "z"); d.Str("a", "xy") }); got == base {
		t.Error("field reorder did not change the digest")
	}
	other := NewDigest("other")
	other.Str("a", "xy")
	other.Str("b", "z")
	if other.Sum() == base {
		t.Error("kind tag did not change the digest")
	}
	if sum(func(d *Digest) { d.Str("a", "xy"); d.Str("b", "z") }) != base {
		t.Error("identical streams digested differently")
	}
}

// TestDigestFieldKinds covers the scalar encoders.
func TestDigestFieldKinds(t *testing.T) {
	d1 := NewDigest("k")
	d1.Int("n", 7)
	d1.Ints("v", []int{1, 2})
	s1 := d1.Sum()

	d2 := NewDigest("k")
	d2.Int("n", 7)
	d2.Ints("v", []int{1, 2})
	if d2.Sum() != s1 {
		t.Error("equal field streams digested differently")
	}
	d3 := NewDigest("k")
	d3.Int("n", 7)
	d3.Ints("v", []int{1, 2, 0})
	if d3.Sum() == s1 {
		t.Error("list length not folded into the digest")
	}
}
