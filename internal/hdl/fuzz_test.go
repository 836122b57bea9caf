package hdl_test

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/hdl"
)

// FuzzParse feeds arbitrary text to the MHDL parser, seeded with every
// in-repo circuit. ParseOnly must never panic. The printer must be the
// parser's inverse up to layout: an accepted source's Format output
// parses again and prints to the same text, and that text passes the
// relaxed check whenever the source did.
func FuzzParse(f *testing.F) {
	for _, name := range circuits.Names() {
		src, _ := circuits.Source(name)
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := hdl.ParseOnly(src)
		if err != nil {
			return
		}
		text := hdl.Format(c)
		checked := hdl.Check(c, hdl.Relaxed) == nil
		again, err := hdl.ParseOnly(text)
		if err != nil {
			t.Fatalf("formatted source does not parse: %v\n%s", err, text)
		}
		if got := hdl.Format(again); got != text {
			t.Fatalf("formatting is not a fixed point:\nfirst:\n%s\nsecond:\n%s", text, got)
		}
		if checked {
			if err := hdl.Check(again, hdl.Relaxed); err != nil {
				t.Fatalf("the source passes the relaxed check, its formatted text fails it: %v\n%s", err, text)
			}
		}
	})
}
