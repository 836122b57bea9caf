package engine

import (
	"context"
	"errors"
	"testing"
)

func TestSerial(t *testing.T) {
	for n, want := range map[int]bool{0: false, 1: true, 2: false, 16: false} {
		if got := (Options{Workers: n}).Serial(); got != want {
			t.Errorf("Workers %d: Serial() = %v, want %v", n, got, want)
		}
	}
}

func TestContextAndCancelled(t *testing.T) {
	var o Options
	if err := o.Cancelled(); err != nil {
		t.Fatalf("zero Options cancelled: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	o.Ctx = ctx
	if err := o.Cancelled(); err != nil {
		t.Fatalf("live context reported cancelled: %v", err)
	}
	cancel()
	if err := o.Cancelled(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Cancelled() = %v, want context.Canceled", err)
	}
}

func TestReport(t *testing.T) {
	var got []Stats
	o := Options{Progress: func(s Stats) { got = append(got, s) }}
	o.Report(1, 4)
	o.Report(4, 4)
	if len(got) != 2 || got[0] != (Stats{1, 4}) || got[1] != (Stats{4, 4}) {
		t.Fatalf("progress reports = %v", got)
	}
	(Options{}).Report(1, 1) // nil hook: must not panic
}
