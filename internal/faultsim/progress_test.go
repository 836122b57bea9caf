package faultsim

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/synth"
)

// progressLog records the engine.Stats reports of one call. The hook may
// run on pool workers, so it locks.
type progressLog struct {
	mu      sync.Mutex
	reports []engine.Stats
}

func (l *progressLog) hook(st engine.Stats) {
	l.mu.Lock()
	l.reports = append(l.reports, st)
	l.mu.Unlock()
}

// take returns the reports since the last take and starts a new call.
func (l *progressLog) take() []engine.Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.reports
	l.reports = nil
	return out
}

// checkProgress asserts the progress contract for one call: Total is
// constant, Done never decreases or exceeds Total, and the last report
// has Done == Total. A call that starts with live faults must report.
func checkProgress(t *testing.T, label string, reports []engine.Stats, live bool) {
	t.Helper()
	if len(reports) == 0 {
		if live {
			t.Errorf("%s: no progress reports", label)
		}
		return
	}
	total := reports[0].Total
	prev := 0
	for i, st := range reports {
		if st.Total != total {
			t.Fatalf("%s: report %d has Total %d, first had %d", label, i, st.Total, total)
		}
		if st.Done < prev || st.Done > st.Total {
			t.Fatalf("%s: report %d Done %d after %d (Total %d)", label, i, st.Done, prev, st.Total)
		}
		prev = st.Done
	}
	if last := reports[len(reports)-1]; last.Done != last.Total {
		t.Errorf("%s: last report %d/%d, want Done == Total", label, last.Done, last.Total)
	}
}

// TestProgressContract pins the engine.Stats stream of Run and of a
// windowed Append session on a combinational (c880) and a sequential
// (b03) circuit, for pooled compiled settings.
func TestProgressContract(t *testing.T) {
	for _, name := range []string{"c880", "b03"} {
		nl, err := synth.Synthesize(circuits.MustLoad(name))
		if err != nil {
			t.Fatal(err)
		}
		tests := randPatterns(len(nl.PIs), 600, 17)
		for _, workers := range []int{2, 0} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				var log progressLog
				s, err := Config{Options: engine.Options{Workers: workers, Progress: log.hook}}.New(nl, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(tests); err != nil {
					t.Fatal(err)
				}
				checkProgress(t, "Run", log.take(), true)
				s.Reset()
				for lo := 0; lo < len(tests); lo += 150 {
					live := len(s.Frontier()) > 0
					if _, err := s.Append(tests[lo : lo+150]); err != nil {
						t.Fatal(err)
					}
					checkProgress(t, fmt.Sprintf("Append [%d,%d)", lo, lo+150), log.take(), live)
				}
			})
		}
	}
}
