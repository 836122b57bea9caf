package campaign

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// fuzzSpecs seeds FuzzSpecKey: the repository benchmark's fresh campaign
// specs, the campaign smoke's job set, and c17 as an inline .bench
// netlist for both gate-level kinds.
func fuzzSpecs(f *testing.F) []Spec {
	f.Helper()
	nl, err := synth.Synthesize(circuits.MustLoad("c17"))
	if err != nil {
		f.Fatal(err)
	}
	var bench strings.Builder
	if err := netlist.WriteBench(&bench, nl); err != nil {
		f.Fatal(err)
	}
	return []Spec{
		{Kind: FaultSim, Circuit: "b03", Horizon: 2048, Window: 64, Seed: 1},
		{Kind: FaultSim, Circuit: "b04", Horizon: 2048, Window: 64, Seed: 1},
		{Kind: MutationTG, Circuit: "b01", MaxLen: 64, Seed: 1},
		{Kind: ATPG, Circuit: "c432", MaxBacktracks: 64, Seed: 1},
		{Kind: FaultSim, Circuit: "c17", Horizon: 16, Seed: 1},
		{Kind: FaultSim, Circuit: "b01", Horizon: 256, Window: 64, Seed: 3},
		{Kind: MutationTG, Circuit: "b02", MaxLen: 64, Seed: 5},
		{Kind: ATPG, Circuit: "c432", Seed: 1},
		{Kind: FaultSim, Bench: bench.String(), Horizon: 64, FaultLo: 2, FaultHi: 20, Seed: 2},
		{Kind: ATPG, Bench: bench.String(), Frames: 4, Seed: 2},
	}
}

// FuzzSpecKey feeds job-spec JSON through the server's decode and the
// keying and sharding paths: JobKey never panics and is stable, an
// accepted spec respects the horizon and frame caps, and every shard of
// an accepted spec is itself accepted.
func FuzzSpecKey(f *testing.F) {
	for _, sp := range fuzzSpecs(f) {
		if _, err := JobKey(sp); err != nil {
			f.Fatalf("seed spec %+v rejected: %v", sp, err)
		}
		b, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sp); err != nil {
			return
		}
		k1, err := JobKey(sp)
		if err != nil {
			return
		}
		k2, err := JobKey(sp)
		if err != nil || k2 != k1 {
			t.Fatalf("second JobKey gave %q, %v; first gave %q", k2, err, k1)
		}
		if sp.Horizon > maxHorizon || sp.Frames > maxFrames {
			t.Fatalf("spec past the caps accepted: horizon %d, frames %d", sp.Horizon, sp.Frames)
		}
		for _, n := range []int{1, 2, 3, 7} {
			shards, err := Shards(sp, n)
			if err != nil {
				t.Fatalf("Shards(n=%d) of an accepted spec: %v", n, err)
			}
			for i, sh := range shards {
				if _, err := JobKey(sh); err != nil {
					t.Fatalf("shard %d of %d (n=%d) rejected: %v", i, len(shards), n, err)
				}
			}
		}
	})
}

// FuzzDecodeReport: DecodeReport never panics, and a decoded report
// re-encodes to bytes that decode and re-encode to the same bytes.
func FuzzDecodeReport(f *testing.F) {
	for _, sp := range []Spec{
		{Kind: FaultSim, Circuit: "c17", Horizon: 16, Seed: 1},
		{Kind: MutationTG, Circuit: "b02", MaxLen: 16, Seed: 5},
		{Kind: ATPG, Circuit: "c17", Seed: 1},
	} {
		rep, err := Execute(sp, nil)
		if err != nil {
			f.Fatal(err)
		}
		b, err := rep.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReport(data)
		if err != nil {
			return
		}
		enc, err := rep.Encode()
		if err != nil {
			t.Fatalf("encoding a decoded report: %v", err)
		}
		again, err := DecodeReport(enc)
		if err != nil {
			t.Fatalf("re-encoded report does not decode: %v\n%s", err, enc)
		}
		enc2, err := again.Encode()
		if err != nil {
			t.Fatalf("encoding the re-decoded report: %v", err)
		}
		if !bytes.Equal(enc2, enc) {
			t.Fatalf("encoding is not stable:\n first: %s\nsecond: %s", enc, enc2)
		}
	})
}
