package difftest

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// benchSource renders a fuzz circuit's synthesized netlist as .bench
// text — the inline-netlist form campaign specs carry over the wire.
func benchSource(t *testing.T, seed int64) string {
	t.Helper()
	nl, err := synth.Synthesize(fuzzCircuit(t, seed))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	var buf bytes.Buffer
	if err := netlist.WriteBench(&buf, nl); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestCampaignCachedVsFresh fuzzes the campaign cache-soundness
// invariant: the report a cache would serve (computed once, under one
// engine configuration) must equal a fresh computation under every
// other configuration and window choice, byte for byte — on random
// circuits, where one divergent scheduler path would split the cache.
func TestCampaignCachedVsFresh(t *testing.T) {
	cache, err := campaign.NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, kind := range []campaign.Kind{campaign.FaultSim, campaign.ATPG} {
			if kind == campaign.ATPG && seed%2 == 0 {
				// Sequential ATPG time-frame expansion on random circuits is
				// too slow for a fuzz matrix; the combinational seeds cover
				// the campaign adapter, the atpg parity suites cover the rest.
				continue
			}
			sp := campaign.Spec{Kind: kind, Bench: benchSource(t, seed), Seed: seed}
			if kind == campaign.FaultSim {
				sp.Horizon = 60
			} else {
				sp.MaxBacktracks = 64
			}
			key, err := campaign.JobKey(sp)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, kind, err)
			}
			configs := engineConfigs
			if kind == campaign.ATPG {
				// The serial reference, one mid-shape, and the production
				// setting; the full matrix is faultsim's job.
				configs = []engineConfig{engineConfigs[0], engineConfigs[1], engineConfigs[3]}
			}
			for _, ec := range configs {
				for _, win := range []int{0, 13} {
					if kind != campaign.FaultSim && win != 0 {
						continue
					}
					run := sp
					run.Window = win
					rep, err := campaign.Execute(run, &campaign.ExecConfig{Options: ec.options()})
					if err != nil {
						t.Fatalf("seed %d %s %s: %v", seed, kind, ec, err)
					}
					fresh, err := rep.Encode()
					if err != nil {
						t.Fatal(err)
					}
					cached := cache.Get(key)
					if cached == nil {
						if err := cache.Put(key, fresh); err != nil {
							t.Fatal(err)
						}
						continue
					}
					if !bytes.Equal(cached, fresh) {
						t.Errorf("seed %d %s %s win=%d: fresh report diverges from cached\nfresh:  %s\ncached: %s",
							seed, kind, ec, win, fresh, cached)
					}
				}
			}
		}
	}
}

// TestCampaignKillResume fuzzes checkpoint/resume on random sequential
// circuits: a windowed campaign killed after k windows (cancellation
// raised from the progress hook, like a dying worker) must resume from
// its checkpoint to the byte-identical final report — under a different
// engine configuration than the one that died.
func TestCampaignKillResume(t *testing.T) {
	for seed := int64(2); seed <= 6; seed += 2 { // even seeds are sequential
		sp := campaign.Spec{
			Kind:    campaign.FaultSim,
			Bench:   benchSource(t, seed),
			Seed:    seed,
			Horizon: 70,
			Window:  10,
		}
		want, err := campaign.Execute(sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := want.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for ki, killAfter := range []int{1, 2, 5} {
			label := fmt.Sprintf("seed %d killAfter=%d", seed, killAfter)
			store, err := campaign.NewCheckpointStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			windows := 0
			cfg := &campaign.ExecConfig{Checkpoints: store}
			cfg.Ctx = ctx
			cfg.Workers = 2
			cfg.Progress = func(engine.Stats) {
				if windows++; windows >= killAfter {
					cancel()
				}
			}
			if _, err := campaign.Execute(sp, cfg); err == nil {
				t.Fatalf("%s: interrupted run reported no error", label)
			}
			cancel()

			resumed := &campaign.ExecConfig{Checkpoints: store}
			resumed.Options = engineConfigs[ki%len(engineConfigs)].options()
			rep, err := campaign.Execute(sp, resumed)
			if err != nil {
				t.Fatalf("%s: resume: %v", label, err)
			}
			got, err := rep.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantBytes) {
				t.Errorf("%s: resumed report differs\n got: %s\nwant: %s", label, got, wantBytes)
			}
		}
	}
}
