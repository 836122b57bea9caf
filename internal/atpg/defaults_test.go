package atpg

import "testing"

// TestSeqOptionsWithDefaults pins every defaulted SeqOptions field, both
// for a nil receiver and for partially-filled options, mirroring the tpg
// pin: the compiled port must not be able to silently change a knob
// default.
func TestSeqOptionsWithDefaults(t *testing.T) {
	// SeqOptions embeds engine.Options (whose Progress hook makes the
	// struct non-comparable), so the pins compare the scalar fields
	// explicitly.
	same := func(a, b SeqOptions) bool {
		return a.Frames == b.Frames && a.MaxBacktracks == b.MaxBacktracks &&
			a.FillSeed == b.FillSeed && a.PackPairs == b.PackPairs &&
			a.Workers == b.Workers && a.LaneWords == b.LaneWords
	}
	got := (*SeqOptions)(nil).withDefaults()
	want := SeqOptions{Frames: 8, MaxBacktracks: 1024}
	if !same(got, want) {
		t.Errorf("nil options: defaults %+v, want %+v", got, want)
	}
	if zero := (&SeqOptions{}).withDefaults(); !same(zero, want) {
		t.Errorf("zero options: defaults %+v, want %+v", zero, want)
	}
	// Explicit values must pass through untouched — including the
	// embedded engine knobs the compiled engine reads.
	in := &SeqOptions{Frames: 3, MaxBacktracks: 17, FillSeed: 5, PackPairs: 4}
	in.Workers = 2
	in.LaneWords = 4
	if got := in.withDefaults(); !same(got, *in) {
		t.Errorf("explicit options rewritten: %+v, want %+v", got, *in)
	}
	// Zero fields of a non-nil struct still pick up defaults.
	part := (&SeqOptions{FillSeed: 9}).withDefaults()
	if part.Frames != 8 || part.MaxBacktracks != 1024 {
		t.Errorf("partial options defaults wrong: %+v", part)
	}
	if part.FillSeed != 9 || part.PackPairs != 0 || part.Workers != 0 || part.LaneWords != 0 {
		t.Errorf("partial options lost explicit fields: %+v", part)
	}
}

// TestOptionsWithDefaults is the combinational counterpart.
func TestOptionsWithDefaults(t *testing.T) {
	same := func(a, b Options) bool {
		return a.MaxBacktracks == b.MaxBacktracks && a.FillSeed == b.FillSeed &&
			a.PackPairs == b.PackPairs &&
			a.Workers == b.Workers && a.LaneWords == b.LaneWords
	}
	got := (*Options)(nil).withDefaults()
	want := Options{MaxBacktracks: 4096}
	if !same(got, want) {
		t.Errorf("nil options: defaults %+v, want %+v", got, want)
	}
	if zero := (&Options{}).withDefaults(); !same(zero, want) {
		t.Errorf("zero options: defaults %+v, want %+v", zero, want)
	}
	in := &Options{MaxBacktracks: 12, FillSeed: 4, PackPairs: 2}
	in.Workers = 3
	in.LaneWords = 8
	if got := in.withDefaults(); !same(got, *in) {
		t.Errorf("explicit options rewritten: %+v, want %+v", got, *in)
	}
}
