package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/campaign"
	"repro/internal/engine"
)

// cmdCampaign runs one campaign job — against a running reprod server
// when -server is set, locally otherwise — and prints the canonical
// report JSON to stdout. The report bytes are identical either way, and
// identical across repeats: that is the campaign service's contract.
func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	server := fs.String("server", "", "reprod base URL (e.g. http://localhost:9190); empty runs the job in-process")
	kind := fs.String("kind", "faultsim", "job kind: faultsim, tg, or atpg")
	seed := fs.Int64("seed", 1, "job seed")
	horizon := fs.Int("horizon", 2048, "faultsim stimulus length (cycles)")
	window := fs.Int("window", 0, "faultsim append window (cycles, 0 = whole horizon; the checkpoint grain)")
	faultLo := fs.Int("faultlo", 0, "fault shard lower bound (faultsim/atpg)")
	faultHi := fs.Int("faulthi", 0, "fault shard upper bound, exclusive (0 with -faultlo 0 = whole list)")
	operator := fs.String("op", "", "mutation operator restriction (tg)")
	maxLen := fs.Int("maxlen", 0, "tg sequence length bound (0 = default)")
	frames := fs.Int("frames", 0, "sequential atpg time-frame depth (0 = default)")
	backtracks := fs.Int("maxbacktracks", 0, "atpg backtrack budget per fault (0 = default)")
	workers := fs.Int("workers", 0, "local execution pool size (0 = all cores)")
	ckptDir := fs.String("ckpt-dir", "", "local checkpoint directory (resume interrupted faultsim jobs)")
	poll := fs.Duration("poll", 100*time.Millisecond, "server status poll interval")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: mutsample campaign [flags] <circuit>")
	}
	sp := campaign.Spec{
		Kind:          campaign.Kind(*kind),
		Circuit:       fs.Arg(0),
		Seed:          *seed,
		Window:        *window,
		FaultLo:       *faultLo,
		FaultHi:       *faultHi,
		Operator:      *operator,
		MaxLen:        *maxLen,
		Frames:        *frames,
		MaxBacktracks: *backtracks,
	}
	if sp.Kind == campaign.FaultSim {
		sp.Horizon = *horizon
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *server != "" {
		c := &campaign.Client{Base: *server}
		st, err := c.Submit(ctx, sp)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "job %s key %s submitted\n", st.ID, st.Key)
		if st, err = c.Wait(ctx, st.ID, *poll); err != nil {
			return err
		}
		if st.State != "done" {
			return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
		}
		fmt.Fprintf(os.Stderr, "job %s done (cached=%v)\n", st.ID, st.Cached)
		b, err := c.Result(ctx, st.ID)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}

	cfg := &campaign.ExecConfig{
		Options: engine.Options{Workers: *workers, Ctx: ctx},
	}
	if *ckptDir != "" {
		st, err := campaign.NewCheckpointStore(*ckptDir)
		if err != nil {
			return err
		}
		cfg.Checkpoints = st
	}
	rep, err := campaign.Execute(sp, cfg)
	if err != nil {
		return err
	}
	b, err := rep.Encode()
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(b)
	return err
}
