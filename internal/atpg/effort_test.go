package atpg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/synth"
)

// effortPin is one generation run's exact outcome: every report counter
// plus a sha256 over the generated patterns (see patternDigest).
type effortPin struct {
	detected, undetectable, aborted, backtracks, calls, total, tests int
	digest                                                           string
}

// patternDigest hashes a test set pattern by pattern, each pattern's PI
// bits followed by a newline, tests in generation order.
func patternDigest(tests [][]faultsim.Pattern) string {
	h := sha256.New()
	for _, test := range tests {
		for _, pat := range test {
			h.Write(pat)
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPODEMEffortPinned pins PODEM's exact effort — every report counter
// and the generated vectors — on c432 (combinational, MaxBacktracks 128)
// and b06 (8 time frames) at Workers 0 (pack scheduler) and 1 (serial
// reference). The parity tests only say the two agree with each other;
// this says neither moved, so a change to the shared decision procedure
// (objective, backtrace, the D-frontier) that shifts effort on both at
// once fails here.
func TestPODEMEffortPinned(t *testing.T) {
	c432, err := synth.Synthesize(circuits.MustLoad("c432"))
	if err != nil {
		t.Fatal(err)
	}
	b06, err := synth.Synthesize(circuits.MustLoad("b06"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(workers int) (effortPin, error)
		want effortPin
	}{
		{
			name: "c432",
			run: func(workers int) (effortPin, error) {
				r, err := Generate(c432, nil, &Options{MaxBacktracks: 128, FillSeed: 1,
					Options: engine.Options{Workers: workers}})
				if err != nil {
					return effortPin{}, err
				}
				return effortPin{r.Detected, r.Redundant, r.Aborted, r.Backtracks, r.PodemCalls, r.Total,
					len(r.Vectors), patternDigest([][]faultsim.Pattern{r.Vectors})}, nil
			},
			want: effortPin{497, 2, 90, 11712, 135, 589, 43,
				"5c25de4b85a9559782123a262b7358a25baf4cffaec9f800c901becb73c0d3f4"},
		},
		{
			name: "b06",
			run: func(workers int) (effortPin, error) {
				r, err := GenerateSequential(b06, 8, nil, &Options{FillSeed: 1,
					Options: engine.Options{Workers: workers}})
				if err != nil {
					return effortPin{}, err
				}
				return effortPin{r.Detected, r.Untestable, r.Aborted, r.Backtracks, r.PodemCalls, r.Total,
					len(r.Tests), patternDigest(r.Tests)}, nil
			},
			want: effortPin{162, 2, 43, 44266, 51, 207, 6,
				"77782139bb182d978a84e55d9352c1cb902c8f6e4c35841659af305764e8648b"},
		},
	} {
		for _, workers := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				got, err := tc.run(workers)
				if err != nil {
					t.Fatal(err)
				}
				if got != tc.want {
					t.Fatalf("effort moved:\ngot  %+v\nwant %+v", got, tc.want)
				}
			})
		}
	}
}
