package atpg

import "testing"

// sameOptions compares the scalar Options fields. Options embeds
// engine.Options (whose Progress hook makes the struct non-comparable), so
// the pins compare the fields explicitly.
func sameOptions(a, b Options) bool {
	return a.MaxBacktracks == b.MaxBacktracks && a.FillSeed == b.FillSeed &&
		a.PackPairs == b.PackPairs &&
		a.Workers == b.Workers
}

// checkOptionsDefaults pins every defaulted Options field for one kind of
// model, for a nil receiver and for partially-filled options, mirroring
// the tpg pin: the compiled port must not be able to silently change a
// knob default.
func checkOptionsDefaults(t *testing.T, sequential bool, backtracks int) {
	t.Helper()
	want := Options{MaxBacktracks: backtracks}
	if got := (*Options)(nil).withDefaults(sequential); !sameOptions(got, want) {
		t.Errorf("nil options: defaults %+v, want %+v", got, want)
	}
	if got := (&Options{}).withDefaults(sequential); !sameOptions(got, want) {
		t.Errorf("zero options: defaults %+v, want %+v", got, want)
	}
	// Explicit values must pass through untouched — including the
	// embedded engine knobs the compiled engine reads.
	in := &Options{MaxBacktracks: 17, FillSeed: 5, PackPairs: 4}
	in.Workers = 2
	if got := in.withDefaults(sequential); !sameOptions(got, *in) {
		t.Errorf("explicit options rewritten: %+v, want %+v", got, *in)
	}
	// Zero fields of a non-nil struct still pick up defaults.
	part := (&Options{FillSeed: 9}).withDefaults(sequential)
	if want := (Options{MaxBacktracks: backtracks, FillSeed: 9}); !sameOptions(part, want) {
		t.Errorf("partial options: %+v, want %+v", part, want)
	}
}

// TestSeqOptionsWithDefaults pins the defaults a sequential model applies:
// its MaxBacktracks budget and its default unroll depth.
func TestSeqOptionsWithDefaults(t *testing.T) {
	checkOptionsDefaults(t, true, 1024)
	m, err := NewSequentialModel(buildToggle(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Frames(); got != 8 {
		t.Errorf("NewSequentialModel(nl, 0).Frames() = %d, want 8", got)
	}
}

// TestOptionsWithDefaults is the combinational counterpart.
func TestOptionsWithDefaults(t *testing.T) {
	checkOptionsDefaults(t, false, 4096)
}
