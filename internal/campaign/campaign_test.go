package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultsim"
)

// mustExecute runs a spec and returns its canonical bytes.
func mustExecute(t *testing.T, sp Spec, cfg *ExecConfig) []byte {
	t.Helper()
	rep, err := Execute(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// shardSpecs returns the specs of a job's shards at width n, nil when
// the job does not split.
func shardSpecs(t testing.TB, sp Spec, n int) []Spec {
	t.Helper()
	pr, err := prepare(sp)
	if err != nil {
		t.Fatal(err)
	}
	var out []Spec
	for _, sh := range pr.shards(n) {
		out = append(out, sh.spec)
	}
	return out
}

// TestJobKeyWindowInvariant pins the key design: the append window is a
// checkpoint grain, not a semantic parameter, so it must not split the
// cache; seeds and shard bounds are semantic, so they must.
func TestJobKeyWindowInvariant(t *testing.T) {
	base := Spec{Kind: FaultSim, Circuit: "b01", Seed: 7, Horizon: 64}
	k1, err := JobKey(base)
	if err != nil {
		t.Fatal(err)
	}
	windowed := base
	windowed.Window = 16
	k2, err := JobKey(windowed)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("window choice changed the job key")
	}
	for label, mutate := range map[string]func(*Spec){
		"seed":    func(s *Spec) { s.Seed = 8 },
		"horizon": func(s *Spec) { s.Horizon = 65 },
		"shard":   func(s *Spec) { s.FaultLo, s.FaultHi = 1, 5 },
		"circuit": func(s *Spec) { s.Circuit = "b02" },
		"kind":    func(s *Spec) { s.Kind = ATPG; s.Horizon = 0 },
	} {
		sp := base
		mutate(&sp)
		k, err := JobKey(sp)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if k == k1 {
			t.Errorf("%s change did not change the job key", label)
		}
	}
}

// TestSpecValidation covers the prepare rejects.
func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Kind: "bogus", Circuit: "b01", Horizon: 8},
		{Kind: FaultSim, Horizon: 8},                                    // no circuit
		{Kind: FaultSim, Circuit: "b01", Bench: "INPUT(a)", Horizon: 8}, // both
		{Kind: FaultSim, Circuit: "b01"},                                // no horizon
		{Kind: FaultSim, Circuit: "nosuch", Horizon: 8},                 // unknown circuit
		{Kind: MutationTG, Bench: "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"},  // tg needs hdl
		{Kind: FaultSim, Circuit: "b01", Horizon: 8, FaultLo: 5, FaultHi: 2},
		{Kind: ATPG, Circuit: "c17", Operator: "CR"},
		{Kind: MutationTG, Circuit: "b01", Operator: "nosuchop"},
		{Kind: FaultSim, Circuit: "c17", Horizon: maxHorizon + 1},
		{Kind: ATPG, Circuit: "b01", Frames: maxFrames + 1},
		{Kind: ATPG, Circuit: "c17", Frames: maxFrames + 1}, // capped even where frames are ignored
	}
	for i, sp := range bad {
		if _, err := JobKey(sp); err == nil {
			t.Errorf("spec %d accepted: %+v", i, sp)
		}
	}
}

// TestExecuteEngineAndWindowInvariance pins the core cache-soundness
// property directly at the executor: the canonical report bytes of a
// job are identical across engine configurations and window choices.
func TestExecuteEngineAndWindowInvariance(t *testing.T) {
	specs := []Spec{
		{Kind: FaultSim, Circuit: "b01", Seed: 3, Horizon: 96},
		{Kind: FaultSim, Circuit: "c17", Seed: 3, Horizon: 32},
		{Kind: ATPG, Circuit: "c17", Seed: 1},
		{Kind: MutationTG, Circuit: "b02", Seed: 5, MaxLen: 64},
	}
	configs := []engine.Options{
		{Workers: 1},
		{Workers: 2},
		{Workers: 0},
	}
	for _, sp := range specs {
		var want []byte
		for ci, opts := range configs {
			for _, win := range []int{0, 17} {
				if sp.Kind != FaultSim && win != 0 {
					continue
				}
				run := sp
				run.Window = win
				got := mustExecute(t, run, &ExecConfig{Options: opts})
				if want == nil {
					want = got
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s/%s cfg=%d win=%d: report differs\n got: %s\nwant: %s",
						sp.Kind, sp.Circuit, ci, win, got, want)
				}
			}
		}
	}
}

// TestFaultSimShardMergeExact: a FaultSim job split into arbitrary fault
// ranges merges to the byte-identical whole-job report.
func TestFaultSimShardMergeExact(t *testing.T) {
	sp := Spec{Kind: FaultSim, Circuit: "b03", Seed: 9, Horizon: 80}
	want := mustExecute(t, sp, nil)
	for _, n := range []int{2, 3, 5} {
		shards := shardSpecs(t, sp, n)
		if len(shards) != n {
			t.Fatalf("shards(%d) returned %d shards", n, len(shards))
		}
		reports := make([]*Report, len(shards))
		for i, shard := range shards {
			var err error
			if reports[i], err = Execute(shard, nil); err != nil {
				t.Fatal(err)
			}
		}
		key, err := JobKey(sp)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := MergeShards(sp, key, reports)
		if err != nil {
			t.Fatal(err)
		}
		got, err := merged.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("n=%d: merged report differs from whole-job report\n got: %s\nwant: %s", n, got, want)
		}
	}
}

// TestCanonicalDecompositions: TG decomposes per operator and ATPG per
// fixed-width chunk regardless of the requested width — their results
// are defined as the merged decomposition, so the decomposition must be
// a function of the spec alone.
func TestCanonicalDecompositions(t *testing.T) {
	tg := Spec{Kind: MutationTG, Circuit: "b02", Seed: 1}
	s3, s7 := shardSpecs(t, tg, 3), shardSpecs(t, tg, 7)
	if fmt.Sprint(s3) != fmt.Sprint(s7) {
		t.Error("TG decomposition depends on the requested width")
	}
	for _, sh := range s3 {
		if sh.Operator == "" {
			t.Error("TG shard without an operator restriction")
		}
	}
	at := Spec{Kind: ATPG, Circuit: "c432", Seed: 1}
	a2, a9 := shardSpecs(t, at, 2), shardSpecs(t, at, 9)
	if fmt.Sprint(a2) != fmt.Sprint(a9) {
		t.Error("ATPG decomposition depends on the requested width")
	}
	if len(a2) < 2 {
		t.Fatalf("c432 ATPG did not decompose (got %d shards)", len(a2))
	}
	for i, sh := range a2 {
		if sh.FaultHi-sh.FaultLo > atpgChunk {
			t.Errorf("shard %d wider than the canonical chunk: [%d,%d)", i, sh.FaultLo, sh.FaultHi)
		}
	}
}

// TestExecuteCheckpointResume kills a windowed FaultSim job mid-campaign
// (context cancelled from the progress hook) and resumes it from the
// checkpoint store: the final report must be byte-identical to an
// uninterrupted run, and the store must be emptied on completion.
func TestExecuteCheckpointResume(t *testing.T) {
	sp := Spec{Kind: FaultSim, Circuit: "b03", Seed: 4, Horizon: 120, Window: 20}
	want := mustExecute(t, sp, nil)
	key, err := JobKey(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, killAfter := range []int{1, 2, 5} {
		st, err := NewCheckpointStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		windows := 0
		cfg := &ExecConfig{
			Options: engine.Options{
				Ctx: ctx,
				Progress: func(engine.Stats) {
					if windows++; windows >= killAfter {
						cancel()
					}
				},
			},
			Checkpoints: st,
		}
		if _, err := Execute(sp, cfg); err == nil {
			t.Fatalf("killAfter=%d: interrupted run reported no error", killAfter)
		}
		cancel()
		ck, err := st.Load(key)
		if err != nil {
			t.Fatal(err)
		}
		if ck == nil {
			t.Fatalf("killAfter=%d: no checkpoint saved", killAfter)
		}
		if ck.Applied != killAfter*20 {
			t.Fatalf("killAfter=%d: checkpoint at %d cycles, want %d", killAfter, ck.Applied, killAfter*20)
		}

		// Resume with a fresh store instance over the same directory — the
		// killed-process shape.
		st2, err := NewCheckpointStore(st.dir)
		if err != nil {
			t.Fatal(err)
		}
		got := mustExecute(t, sp, &ExecConfig{Checkpoints: st2})
		if !bytes.Equal(got, want) {
			t.Errorf("killAfter=%d: resumed report differs\n got: %s\nwant: %s", killAfter, got, want)
		}
		if ck, _ := st2.Load(key); ck != nil {
			t.Errorf("killAfter=%d: checkpoint not dropped after completion", killAfter)
		}
	}
}

// TestExecuteCorruptCheckpointDiscarded stores corrupt checkpoints
// under windowed FaultSim jobs' keys: Execute must discard each one,
// return the fresh run's bytes rather than trust it, and drop it. The
// unsharded job gets detection indices outside [-1, Applied). The
// sharded job (faults [10, 60)) gets checkpoints that reach outside its
// shard: a detection recorded for a fault it does not cover, and a
// frontier fault from another shard that the unsharded run detects after
// the checkpoint, so a resumed run that kept simulating it would report
// it.
func TestExecuteCorruptCheckpointDiscarded(t *testing.T) {
	whole := Spec{Kind: FaultSim, Circuit: "b03", Seed: 4, Horizon: 120, Window: 20}
	shard := whole
	shard.FaultLo, shard.FaultHi = 10, 60
	wholeRep, err := DecodeReport(mustExecute(t, whole, nil))
	if err != nil {
		t.Fatal(err)
	}
	type corruption struct {
		name    string
		sp      Spec
		corrupt func(ck *faultsim.Checkpoint) bool // false: no candidate
	}
	// detectionAt overwrites the checkpoint's first recorded detection.
	detectionAt := func(bad int) func(*faultsim.Checkpoint) bool {
		return func(ck *faultsim.Checkpoint) bool {
			for i, d := range ck.FirstDetected {
				if d >= 0 {
					ck.FirstDetected[i] = bad
					return true
				}
			}
			return false
		}
	}
	cases := []corruption{
		{"detection index 1<<40", whole, detectionAt(1 << 40)},
		{"detection index -7", whole, detectionAt(-7)},
		{"detection outside the shard", shard, func(ck *faultsim.Checkpoint) bool {
			for fi := shard.FaultHi; fi < len(ck.FirstDetected); fi++ {
				if ck.FirstDetected[fi] < 0 {
					ck.FirstDetected[fi] = 0
					return true
				}
			}
			return false
		}},
		{"frontier fault outside the shard", shard, func(ck *faultsim.Checkpoint) bool {
			for fi := shard.FaultHi; fi < len(wholeRep.FirstDetected); fi++ {
				if wholeRep.FirstDetected[fi] >= ck.Applied {
					ck.Frontier = append(ck.Frontier, fi)
					return true
				}
			}
			return false
		}},
	}
	for _, c := range cases {
		want := mustExecute(t, c.sp, nil)
		key, err := JobKey(c.sp)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewCheckpointStore("")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cfg := &ExecConfig{
			Options:     engine.Options{Ctx: ctx, Progress: func(engine.Stats) { cancel() }},
			Checkpoints: st,
		}
		if _, err := Execute(c.sp, cfg); err == nil {
			t.Fatalf("%s: interrupted run reported no error", c.name)
		}
		cancel()
		ck, err := st.Load(key)
		if err != nil || ck == nil {
			t.Fatalf("%s: no checkpoint saved: %v", c.name, err)
		}
		corrupt := *ck
		corrupt.FirstDetected = append([]int(nil), ck.FirstDetected...)
		corrupt.Frontier = append([]int(nil), ck.Frontier...)
		if !c.corrupt(&corrupt) {
			t.Fatalf("%s: checkpoint after %d cycles offers nothing to corrupt", c.name, ck.Applied)
		}
		if err := st.Save(key, &corrupt); err != nil {
			t.Fatal(err)
		}
		if got := mustExecute(t, c.sp, &ExecConfig{Checkpoints: st}); !bytes.Equal(got, want) {
			t.Errorf("%s: report differs from a fresh run\n got: %s\nwant: %s", c.name, got, want)
		}
		if ck, _ := st.Load(key); ck != nil {
			t.Errorf("%s: corrupt checkpoint not dropped", c.name)
		}
	}
}

// TestCacheLRUAndDisk covers the result cache: LRU eviction, disk
// persistence across instances, and the counters.
func TestCacheLRUAndDisk(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", []byte("ra"))
	c.Put("b", []byte("rb"))
	if got := c.Get("a"); !bytes.Equal(got, []byte("ra")) {
		t.Fatalf("Get(a) = %q", got)
	}
	c.Put("c", []byte("rc")) // evicts b (a was just touched)
	st := c.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
	if got := c.Get("b"); !bytes.Equal(got, []byte("rb")) {
		t.Fatalf("evicted entry not reloaded from disk: %q", got)
	}
	st = c.Stats()
	if st.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1", st.DiskHits)
	}

	// A fresh instance over the same directory serves the old results.
	c2, err := NewCache(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Get("a"); !bytes.Equal(got, []byte("ra")) {
		t.Fatalf("fresh instance Get(a) = %q", got)
	}

	// Memory-only cache misses cleanly.
	m, err := NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Get("a"); got != nil {
		t.Fatalf("memory cache invented %q", got)
	}
	if st := m.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCacheConcurrentDiskFallback races many Gets of one disk-resident
// key: the disk fallback runs outside the cache mutex, so every racer
// must still get the bytes, exactly one promotion may count as a disk
// hit, and the hit/miss counters must stay exact. Also races a missing
// key, where every racer is one clean miss.
func TestCacheConcurrentDiskFallback(t *testing.T) {
	dir := t.TempDir()
	seed, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Put("k", []byte("rk")); err != nil {
		t.Fatal(err)
	}

	// Fresh instance: "k" exists on disk only.
	c, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	const racers = 16
	var wg sync.WaitGroup
	errc := make(chan error, 2*racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := c.Get("k"); !bytes.Equal(got, []byte("rk")) {
				errc <- fmt.Errorf("Get(k) = %q", got)
			}
			if got := c.Get("absent"); got != nil {
				errc <- fmt.Errorf("Get(absent) = %q", got)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := c.Stats()
	if st.Hits != racers {
		t.Errorf("hits = %d, want %d", st.Hits, racers)
	}
	if st.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1 (one promotion, no double insert)", st.DiskHits)
	}
	if st.Misses != racers {
		t.Errorf("misses = %d, want %d", st.Misses, racers)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

// TestReportEncodeRoundTrip: canonical encoding is stable and decodes
// back to an equal report.
func TestReportEncodeRoundTrip(t *testing.T) {
	rep := &Report{Kind: FaultSim, Key: "k", Fingerprint: "fp", Seed: 3,
		Faults: 2, Detected: 1, Patterns: 8, FirstDetected: []int{4, -1}}
	b1, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("Encode not stable")
	}
	back, err := DecodeReport(b1)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b3) {
		t.Fatal("decode/encode round trip changed the bytes")
	}
	if _, err := DecodeReport([]byte(`{"bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

// TestServerEndToEnd drives the full service over HTTP: submit a job
// set, then submit it again — the second pass must be served from cache
// (hit counters, Cached flag) with byte-identical reports. A sharded
// job (c432 ATPG decomposes into canonical chunks) must also match a
// plain in-process Execute of the same spec.
func TestServerEndToEnd(t *testing.T) {
	srv, err := NewServer(ServerConfig{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := &Client{Base: hs.URL}
	ctx := context.Background()

	specs := []Spec{
		{Kind: FaultSim, Circuit: "b01", Seed: 3, Horizon: 96, Window: 32},
		{Kind: ATPG, Circuit: "c432", Seed: 1, MaxBacktracks: 64},
		{Kind: MutationTG, Circuit: "b02", Seed: 5, MaxLen: 64},
	}
	first := make([][]byte, len(specs))
	for i, sp := range specs {
		st, err := c.Submit(ctx, sp)
		if err != nil {
			t.Fatal(err)
		}
		if st, err = c.Wait(ctx, st.ID, 0); err != nil {
			t.Fatal(err)
		}
		if st.State != "done" {
			t.Fatalf("spec %d: job %s: %s", i, st.State, st.Error)
		}
		if st.Cached {
			t.Errorf("spec %d: first run claims cached", i)
		}
		if first[i], err = c.Result(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		// The served bytes equal a plain in-process Execute: one semantics,
		// whoever computes it.
		if local := mustExecute(t, sp, nil); !bytes.Equal(first[i], local) {
			t.Errorf("spec %d: served report differs from local Execute\n got: %s\nwant: %s", i, first[i], local)
		}
	}
	for i, sp := range specs {
		st, err := c.Submit(ctx, sp)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Cached || st.State != "done" {
			t.Errorf("spec %d: second submit not served from cache: %+v", i, st)
		}
		b, err := c.Result(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, first[i]) {
			t.Errorf("spec %d: cached report differs from first run", i)
		}
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits < uint64(len(specs)) {
		t.Errorf("cache hits = %d, want >= %d", stats.Cache.Hits, len(specs))
	}
	if stats.Jobs["done"] != 2*len(specs) {
		t.Errorf("done jobs = %d, want %d", stats.Jobs["done"], 2*len(specs))
	}
}

// TestServerFreshJobAllocs bounds the bytes one fresh job allocates
// through the HTTP service (submit, wait, result), averaged over five
// seeds, for the repository benchmark's b04 fault-simulation, b01 TG
// and c432 ATPG jobs. The server elaborates a job once and its shards
// share that elaboration (1.6, 3.6 and 1.0 MB a job); elaborating the
// spec again in every layer and for every shard took 3.4, 7.1 and
// 2.9 MB.
func TestServerFreshJobAllocs(t *testing.T) {
	srv, err := NewServer(ServerConfig{Exec: ExecConfig{Options: engine.Options{Workers: 2}}, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := &Client{Base: hs.URL}
	ctx := context.Background()
	run := func(sp Spec) {
		st, err := c.Submit(ctx, sp)
		if err != nil {
			t.Fatal(err)
		}
		if st, err = c.Wait(ctx, st.ID, 0); err != nil {
			t.Fatal(err)
		}
		if st.State != "done" || st.Cached {
			t.Fatalf("%+v: job %s (cached %v): %s", sp, st.State, st.Cached, st.Error)
		}
		if _, err := c.Result(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		spec  func(seed int64) Spec
		maxMB float64
	}{
		{"b04 faultsim", func(s int64) Spec {
			return Spec{Kind: FaultSim, Circuit: "b04", Horizon: 2048, Window: 64, Seed: s}
		}, 2.5},
		{"b01 tg", func(s int64) Spec { return Spec{Kind: MutationTG, Circuit: "b01", MaxLen: 64, Seed: s} }, 5.3},
		{"c432 atpg", func(s int64) Spec { return Spec{Kind: ATPG, Circuit: "c432", MaxBacktracks: 64, Seed: s} }, 2.0},
	} {
		run(tc.spec(100)) // one-time state of the job's code paths
		const seeds = 5
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for s := int64(1); s <= seeds; s++ {
			run(tc.spec(s))
		}
		runtime.ReadMemStats(&ms)
		mb := float64(ms.TotalAlloc-before) / seeds / 1e6
		t.Logf("%s: %.2f MB a fresh job", tc.name, mb)
		if mb > tc.maxMB {
			t.Errorf("%s: a fresh job allocates %.2f MB, want at most %.1f", tc.name, mb, tc.maxMB)
		}
	}
}

// TestServerCancelJob drives the job-cancel path over HTTP. With one
// local slot, a long FaultSim job holds it while a second job waits for
// it; cancelling the waiting job must end it cancelled, with the
// context's error, no result and nothing cached under its key, so the
// same spec resubmitted once the slot is free runs fresh.
func TestServerCancelJob(t *testing.T) {
	srv, err := NewServer(ServerConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := &Client{Base: hs.URL}
	ctx := context.Background()
	const poll = 5 * time.Millisecond

	long, err := c.Submit(ctx, Spec{Kind: FaultSim, Circuit: "b04", Seed: 1, Horizon: maxHorizon, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Once the long job reports progress it holds the only slot.
	for {
		st, err := c.Status(ctx, long.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "pending" && st.State != "running" {
			t.Fatalf("long job ended %s before the test cancelled it", st.State)
		}
		if st.Done > 0 {
			break
		}
		time.Sleep(poll)
	}

	sp := Spec{Kind: FaultSim, Circuit: "c17", Seed: 1, Horizon: 16}
	queued, err := c.Submit(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, queued.ID, poll)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "cancelled" || st.Error != context.Canceled.Error() {
		t.Fatalf("cancelled job reads %s (%q), want cancelled (%q)", st.State, st.Error, context.Canceled)
	}
	if _, err := c.Result(ctx, queued.ID); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("Result of a cancelled job: %v, want a 409", err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs["cancelled"] != 1 {
		t.Errorf("cancelled jobs = %d, want 1", stats.Jobs["cancelled"])
	}
	key, err := JobKey(sp)
	if err != nil {
		t.Fatal(err)
	}
	if srv.cache.Get(key) != nil {
		t.Error("the cancelled job's key is cached")
	}

	// Free the slot: the resubmitted spec must run, not hit the cache.
	if err := c.Cancel(ctx, long.ID); err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, long.ID, poll); err != nil {
		t.Fatal(err)
	}
	if st.State != "cancelled" {
		t.Fatalf("long job reads %s after its cancel", st.State)
	}
	again, err := c.Submit(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Error("resubmitted spec served from cache")
	}
	if st, err = c.Wait(ctx, again.ID, poll); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Cached {
		t.Errorf("resubmitted spec reads %s (cached %v), want a fresh done", st.State, st.Cached)
	}
	if stats, err = c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if stats.Jobs["cancelled"] != 2 || stats.Jobs["done"] != 1 {
		t.Errorf("job states %v, want 2 cancelled and 1 done", stats.Jobs)
	}

	if err := c.Cancel(ctx, "j999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("Cancel of an unknown job: %v, want a 404", err)
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
}

// TestServerPeerFanout runs a two-server deployment: the front server
// fans shards out to a peer, and the merged report is byte-identical to
// a single-machine run. The peer must have executed at least one shard
// (its cache misses prove it).
func TestServerPeerFanout(t *testing.T) {
	peerSrv, err := NewServer(ServerConfig{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer peerSrv.Close()
	peerHTTP := httptest.NewServer(peerSrv)
	defer peerHTTP.Close()

	front, err := NewServer(ServerConfig{Parallel: 2, Peers: []string{peerHTTP.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	frontHTTP := httptest.NewServer(front)
	defer frontHTTP.Close()

	c := &Client{Base: frontHTTP.URL}
	ctx := context.Background()
	sp := Spec{Kind: ATPG, Circuit: "c432", Seed: 2, MaxBacktracks: 64}
	st, err := c.Submit(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 0); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("job %s: %s", st.State, st.Error)
	}
	got, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustExecute(t, sp, nil); !bytes.Equal(got, want) {
		t.Errorf("fanned-out report differs from single-machine run\n got: %s\nwant: %s", got, want)
	}
	if st := peerSrv.cache.Stats(); st.Misses == 0 {
		t.Error("peer executed nothing")
	}
	// The front's misses are the job lookup at submit and its two local
	// shards; a fourth would mean it refused the peer's reply and ran
	// that shard itself.
	if st := front.cache.Stats(); st.Misses != 3 || st.Hits != 0 {
		t.Errorf("front cache %+v, want 3 misses and no hits", st)
	}
}

// TestServerPeerBadReplies runs a 3-shard job whose middle shard goes to
// a peer that answers with a bad reply: bytes that are not a report, the
// report of another shard, the right report in non-canonical form, or
// the right report padded past the client's reply cap.
// Each reply must be refused and the shard run locally, so the merged
// report equals a single-machine run and the front's cache holds the
// shard's canonical report.
func TestServerPeerBadReplies(t *testing.T) {
	sp := Spec{Kind: ATPG, Circuit: "c432", Seed: 2, MaxBacktracks: 64}
	shards := shardSpecs(t, sp, 3)
	if len(shards) != 3 {
		t.Fatalf("%d shards, want 3", len(shards))
	}
	want := mustExecute(t, sp, nil)
	first := mustExecute(t, shards[0], nil)
	middle := mustExecute(t, shards[1], nil)
	middleKey, err := JobKey(shards[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		reply []byte
	}{
		{"not json", []byte("not json\n")},
		{"other shard", first},
		{"non-canonical", append([]byte(" "), middle...)},
		{"oversized", append(bytes.Clone(middle), bytes.Repeat([]byte(" "), maxReportBytes+1-len(middle))...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Write(tc.reply)
			}))
			defer peer.Close()
			// Parallel 2 plus one peer makes three shards; shard 1 goes
			// to the peer.
			front, err := NewServer(ServerConfig{Parallel: 2, Peers: []string{peer.URL}})
			if err != nil {
				t.Fatal(err)
			}
			defer front.Close()
			hs := httptest.NewServer(front)
			defer hs.Close()
			c := &Client{Base: hs.URL}
			ctx := context.Background()
			st, err := c.Submit(ctx, sp)
			if err != nil {
				t.Fatal(err)
			}
			if st, err = c.Wait(ctx, st.ID, 0); err != nil {
				t.Fatal(err)
			}
			if st.State != "done" {
				t.Fatalf("job %s: %s", st.State, st.Error)
			}
			got, err := c.Result(ctx, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("merged report differs from single-machine run\n got: %s\nwant: %s", got, want)
			}
			if b := front.cache.Get(middleKey); !bytes.Equal(b, middle) {
				t.Errorf("cache holds %q under the peer's shard key, want its canonical report", b)
			}
		})
	}
}

// TestClientReplySizeCapped: a server whose report reply is one byte
// past maxReportBytes makes Execute and Result fail instead of reading
// it whole, while a reply of exactly the cap is still read.
func TestClientReplySizeCapped(t *testing.T) {
	for _, tc := range []struct {
		size    int
		wantErr bool
	}{{maxReportBytes, false}, {maxReportBytes + 1, true}} {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write(bytes.Repeat([]byte(" "), tc.size))
		}))
		c := &Client{Base: hs.URL}
		ctx := context.Background()
		b, _, err := c.Execute(ctx, Spec{Kind: FaultSim, Circuit: "c17", Seed: 1, Horizon: 16})
		if (err != nil) != tc.wantErr {
			t.Errorf("Execute of a %d-byte reply: %d bytes, error %v", tc.size, len(b), err)
		}
		b, err = c.Result(ctx, "j1")
		if (err != nil) != tc.wantErr {
			t.Errorf("Result of a %d-byte reply: %d bytes, error %v", tc.size, len(b), err)
		}
		hs.Close()
	}
}

// TestExecuteEndpoint exercises the synchronous endpoint and its cache
// header.
func TestExecuteEndpoint(t *testing.T) {
	srv, err := NewServer(ServerConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := &Client{Base: hs.URL}
	ctx := context.Background()
	sp := Spec{Kind: FaultSim, Circuit: "c17", Seed: 1, Horizon: 16}
	b1, cached, err := c.Execute(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first execute claims cached")
	}
	b2, cached, err := c.Execute(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("second execute not served from cache")
	}
	if !bytes.Equal(b1, b2) {
		t.Error("cached bytes differ")
	}
}

// TestSubmitMalformedBenchRejected submits inline netlists whose gates
// have the wrong number of inputs, or that define a net as a gate and
// then as a flip-flop: each submit must come back 400 with the parser's
// line-numbered error, and the server must keep serving.
func TestSubmitMalformedBenchRejected(t *testing.T) {
	srv, err := NewServer(ServerConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	for _, tc := range []struct{ lines, want string }{
		{"b = AND()", "bench line 3"},
		{"b = NOT(a, a)", "bench line 3"},
		{"b = BUFF()", "bench line 3"},
		{"b = XOR(a)", "bench line 3"},
		{"b = NOT(a)\nb = DFF(a)", "bench line 4"},
	} {
		body, err := json.Marshal(Spec{Kind: ATPG, Bench: "INPUT(a)\nOUTPUT(b)\n" + tc.lines + "\n", Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%q: %v", tc.lines, err)
		}
		msg := new(bytes.Buffer)
		msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status %s, want 400 Bad Request", tc.lines, resp.Status)
		}
		if !strings.Contains(msg.String(), tc.want) {
			t.Errorf("%q: error body %q does not name %s", tc.lines, msg, tc.want)
		}
	}
	c := &Client{Base: hs.URL}
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("server stopped serving after malformed submits: %v", err)
	}
}

// TestSubmitOverCapSpecRejected posts specs one past the horizon and
// frame caps to both spec endpoints: each must come back 400 Bad Request
// naming the limit, with nothing run.
func TestSubmitOverCapSpecRejected(t *testing.T) {
	srv, err := NewServer(ServerConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	for _, sp := range []Spec{
		{Kind: FaultSim, Circuit: "c17", Seed: 1, Horizon: maxHorizon + 1},
		{Kind: ATPG, Circuit: "c17", Seed: 1, Frames: maxFrames + 1},
	} {
		body, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{"/v1/jobs", "/v1/execute"} {
			resp, err := http.Post(hs.URL+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			msg := new(bytes.Buffer)
			msg.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %s, want 400 Bad Request", path, body, resp.Status)
			}
			if !strings.Contains(msg.String(), "limit") {
				t.Errorf("%s %s: error body %q does not name the limit", path, body, msg)
			}
		}
	}
	if st := srv.cache.Stats(); st.Misses != 0 {
		t.Errorf("cache %+v after rejected specs, want no lookups", st)
	}
}

// TestSubmitOversizedBodyRejected posts job specs whose inline netlist
// exceeds the body limit to both spec endpoints: each must come back 413
// without the server buffering the body, and a normal submit afterwards
// must still complete.
func TestSubmitOversizedBodyRejected(t *testing.T) {
	srv, err := NewServer(ServerConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	body, err := json.Marshal(Spec{Kind: ATPG, Bench: strings.Repeat("#", maxSpecBytes), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/jobs", "/v1/execute"} {
		resp, err := http.Post(hs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %s, want 413 Request Entity Too Large", path, resp.Status)
		}
	}
	c := &Client{Base: hs.URL}
	ctx := context.Background()
	st, err := c.Submit(ctx, Spec{Kind: FaultSim, Circuit: "c17", Seed: 1, Horizon: 16})
	if err != nil {
		t.Fatalf("submit after oversized bodies: %v", err)
	}
	if st, err = c.Wait(ctx, st.ID, 0); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("job after oversized bodies: %s: %s", st.State, st.Error)
	}
}
