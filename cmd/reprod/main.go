// Command reprod is the campaign server: a long-running job service
// that accepts mutation-TG, fault-simulation and ATPG campaign jobs
// over HTTP, shards them across local worker goroutines and optional
// remote peers, serves repeated requests from a content-addressed
// result cache, and checkpoints long sequential campaigns so a killed
// process resumes them bit-identically.
//
// Usage:
//
//	reprod [-listen :9190] [-parallel N] [-workers N] [-cache N]
//	       [-cache-dir DIR] [-ckpt-dir DIR]
//	       [-peers URL1,URL2,...]
//
// The v1 API:
//
//	POST   /v1/jobs            submit a job spec, returns its status
//	GET    /v1/jobs/{id}        job status (state, cache hit, progress)
//	GET    /v1/jobs/{id}/result canonical report JSON of a finished job
//	DELETE /v1/jobs/{id}        cancel a job
//	POST   /v1/execute          run one spec synchronously (peer fan-out)
//	GET    /v1/stats            cache hit/miss counters and job states
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/engine"
)

func main() {
	listen := flag.String("listen", ":9190", "listen address")
	parallel := flag.Int("parallel", 2, "concurrently executing local shards")
	workers := flag.Int("workers", 0, "engine pool size per shard (0 = all cores, 1 = serial reference)")
	cacheCap := flag.Int("cache", 0, "in-memory result cache capacity (0 = default 1024)")
	cacheDir := flag.String("cache-dir", "", "persist cached reports under this directory")
	ckptDir := flag.String("ckpt-dir", "", "persist faultsim window checkpoints under this directory")
	peers := flag.String("peers", "", "comma-separated base URLs of remote campaign workers")
	flag.Parse()

	if err := run(*listen, *parallel, *workers, *cacheCap, *cacheDir, *ckptDir, *peers); err != nil {
		fmt.Fprintf(os.Stderr, "reprod: %v\n", err)
		os.Exit(1)
	}
}

func run(listen string, parallel, workers, cacheCap int, cacheDir, ckptDir, peers string) error {
	cache, err := campaign.NewCache(cacheCap, cacheDir)
	if err != nil {
		return err
	}
	cfg := campaign.ServerConfig{
		Exec: campaign.ExecConfig{
			Options: engine.Options{Workers: workers},
		},
		Cache:    cache,
		Parallel: parallel,
	}
	if ckptDir != "" {
		if cfg.Exec.Checkpoints, err = campaign.NewCheckpointStore(ckptDir); err != nil {
			return err
		}
	}
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			cfg.Peers = append(cfg.Peers, p)
		}
	}
	srv, err := campaign.NewServer(cfg)
	if err != nil {
		return err
	}
	// ReadHeaderTimeout drops clients that never finish their headers and
	// IdleTimeout closes idle keep-alive connections. There is no read or
	// write timeout: /v1/execute holds the request open while its job
	// runs, and an expired read deadline would cancel that job.
	hs := &http.Server{
		Addr:              listen,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("reprod: serving on %s (parallel=%d peers=%d)", listen, parallel, len(cfg.Peers))
		errc <- hs.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("reprod: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return err
	}
	srv.Close()
	return nil
}
