package atpg

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/synth"
)

// runOn runs one generation call on m through the adapter for its kind.
func runOn(m *Model, faults []faultsim.Fault, opts *Options) (any, error) {
	if m.Frames() == 0 {
		return m.Generate(faults, opts)
	}
	return m.GenerateSequential(faults, opts)
}

// TestModelConcurrentRuns pins that one Model serves concurrent runs.
// Two runs start at once from two goroutines on one model, one over the
// full fault list and one over every third fault with another fill
// seed; each must report exactly what the same call reports on a fresh
// model, the two calls made one after the other. The subset run takes
// the pack scheduler in one leg and the serial reference in the other,
// so both drivers run beside a packed run. Every run owns its plane,
// cursors and twin machine: run under -race, a write to state the
// model shares is reported. MaxBacktracks is small to keep -race quick.
func TestModelConcurrentRuns(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frames int // 0: combinational model
	}{
		{"c432", 0}, {"b06", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nl, err := synth.Synthesize(circuits.MustLoad(tc.name))
			if err != nil {
				t.Fatal(err)
			}
			newModel := func() *Model {
				t.Helper()
				var m *Model
				var err error
				if tc.frames == 0 {
					m, err = NewModel(nl)
				} else {
					m, err = NewSequentialModel(nl, tc.frames)
				}
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			all := faultsim.Faults(nl)
			var sub []faultsim.Fault
			for i := 0; i < len(all); i += 3 {
				sub = append(sub, all[i])
			}
			for _, workers := range []int{0, 1} {
				calls := []struct {
					faults []faultsim.Fault
					opts   *Options
				}{
					{all, &Options{MaxBacktracks: 16, FillSeed: 1}},
					{sub, &Options{MaxBacktracks: 16, FillSeed: 2, Options: engine.Options{Workers: workers}}},
				}
				want := make([]any, len(calls))
				for i, c := range calls {
					if want[i], err = runOn(newModel(), c.faults, c.opts); err != nil {
						t.Fatal(err)
					}
				}
				shared := newModel()
				got := make([]any, len(calls))
				errs := make([]error, len(calls))
				var wg sync.WaitGroup
				for i, c := range calls {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[i], errs[i] = runOn(shared, c.faults, c.opts)
					}()
				}
				wg.Wait()
				for i := range calls {
					label := fmt.Sprintf("subset run at Workers %d: run %d", workers, i)
					if errs[i] != nil {
						t.Fatalf("%s: %v", label, errs[i])
					}
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("%s: concurrent report %+v, fresh model's %+v", label, got[i], want[i])
					}
				}
			}
		})
	}
}
