package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/engine"
)

// The campaign workload is a closed loop: campaignClients clients, each
// on one keep-alive connection, send their next job once the previous
// one returned its result bytes. A pass has the same make-up for every
// client. First come passRounds rounds of executions, each a twin,
// where both clients submit the same fresh spec right after a barrier,
// then roundFresh fresh specs, with thinkTime after every op. Then,
// once every execution of the pass has returned, the clients take turns
// sending passRepeats repeats of specs they submitted before back to
// back, one client at a time: 50% fresh, 40% repeats, 10% twins.
// Repeats rotate through the kinds, the spec within a kind chosen by
// the seed. A cache hit that ran beside a job or the other client's hit
// waited for a core, and the share that did followed the load from
// outside: with repeats between executions, and think time between
// repeats, the 10-run spread of the hit latency was 15-18%.
// Fresh specs and twins rotate through the four freshKinds, so a pass
// runs each kind equally often and pass times are comparable.
const (
	campaignClients = 2
	roundFresh      = 5
	passRounds      = 4
	roundExec       = 1 + roundFresh         // a twin, then the fresh specs
	passExec        = passRounds * roundExec // executions per client and pass
	passFresh       = roundFresh * passRounds
	passRepeats     = 16
	passOps         = passExec + passRepeats
	pollEvery       = 2 * time.Millisecond
	// thinkTime is how long a client waits after each execution. Without
	// it the two clients keep both cores saturated, and pass times spread
	// 4-12% from run to run with goroutine scheduling; with it, about 2%.
	thinkTime = 5 * time.Millisecond
	// verifyPerKind distinct specs of each kind, per measured stretch,
	// are executed again in-process after the loop; their bytes must
	// equal the bytes the server served.
	verifyPerKind = 4
	// spanHeader carries the client's span to the handler.
	spanHeader = "X-Bench-Span"
)

// freshKinds are the job kinds fresh specs rotate through, sized like
// the repository's campaign tests: sequential fault simulation in
// 64-cycle windows, a mutation-TG round and a bounded ATPG run.
var freshKinds = []func(seed int64) campaign.Spec{
	func(s int64) campaign.Spec {
		return campaign.Spec{Kind: campaign.FaultSim, Circuit: "b03", Horizon: 2048, Window: 64, Seed: s}
	},
	func(s int64) campaign.Spec {
		return campaign.Spec{Kind: campaign.FaultSim, Circuit: "b04", Horizon: 2048, Window: 64, Seed: s}
	},
	func(s int64) campaign.Spec {
		return campaign.Spec{Kind: campaign.MutationTG, Circuit: "b01", MaxLen: 64, Seed: s}
	},
	func(s int64) campaign.Spec {
		return campaign.Spec{Kind: campaign.ATPG, Circuit: "c432", MaxBacktracks: 64, Seed: s}
	},
}

type opKind int

const (
	opFresh opKind = iota
	opRepeat
	opTwin
)

type op struct {
	kind opKind
	spec campaign.Spec
}

// planner draws one client's ops from the workload seed. The same seed
// and client always give the same ops, and twin i is the same spec for
// every client.
type planner struct {
	rng     *rand.Rand
	seed    int64
	client  int
	n       int               // ops planned
	twins   int               // twins planned
	fresh   int               // fresh specs planned
	repeats int               // repeats planned
	done    [][]campaign.Spec // distinct specs planned so far, by freshKinds index
}

func newPlanner(seed int64, client int) *planner {
	return &planner{rng: rand.New(rand.NewSource(seed*1000 + int64(client))), seed: seed, client: client,
		done: make([][]campaign.Spec, len(freshKinds))}
}

// jobSeed keeps every fresh and twin spec distinct: the workload seed
// in the high bits, then the client (0 for twins), then a counter.
func jobSeed(seed int64, client, n int) int64 {
	return seed<<32 | int64(client)<<24 | int64(n)
}

// slotKind is the kind of op i of a pass.
func slotKind(i int) opKind {
	switch {
	case i >= passExec:
		return opRepeat
	case i%roundExec == 0:
		return opTwin
	}
	return opFresh
}

// nextPass plans one pass of passOps ops.
func (p *planner) nextPass() []op {
	out := make([]op, 0, passOps)
	for i := 0; i < passOps; i++ {
		var o op
		var kind int
		switch slotKind(i) {
		case opTwin:
			kind = p.twins % len(freshKinds)
			o = op{opTwin, freshKinds[kind](jobSeed(p.seed, 0, p.twins))}
			p.twins++
		case opFresh:
			kind = p.fresh % len(freshKinds)
			o = op{opFresh, freshKinds[kind](jobSeed(p.seed, p.client+1, p.fresh))}
			p.fresh++
		default:
			// Repeats rotate through the kinds too: a hit costs from 0.19
			// to 0.30 ms by circuit, most of it keying the spec, so a
			// seeded mix of kinds would move the hit latency with the seed.
			kind = p.repeats % len(freshKinds)
			o = op{opRepeat, p.done[kind][p.rng.Intn(len(p.done[kind]))]}
			p.repeats++
		}
		if o.kind != opRepeat {
			p.done[kind] = append(p.done[kind], o.spec)
		}
		out = append(out, o)
	}
	p.n += passOps
	return out
}

// barrier is a reusable rendezvous for n parties. The last to arrive
// runs decide, alone, and its answer goes to everyone.
type barrier struct {
	n       int
	mu      sync.Mutex
	waiting int
	gen     *generation
}

type generation struct {
	released chan struct{}
	goOn     bool
}

func newBarrier(n int) *barrier {
	return &barrier{n: n, gen: &generation{released: make(chan struct{})}}
}

// await blocks until all n parties have arrived and returns the last
// arriver's decide().
func (b *barrier) await(decide func() bool) bool {
	b.mu.Lock()
	g := b.gen
	b.waiting++
	if b.waiting == b.n {
		g.goOn = decide()
		b.waiting = 0
		b.gen = &generation{released: make(chan struct{})}
		close(g.released)
		b.mu.Unlock()
		return g.goOn
	}
	b.mu.Unlock()
	<-g.released
	return g.goOn
}

// tracedHandler wraps the server's handler in a span per request, as a
// child of the client call named in spanHeader, while a tracer is set.
type tracedHandler struct {
	h  http.Handler
	tr atomic.Pointer[tracer]
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := t.tr.Load()
	if tr == nil {
		t.h.ServeHTTP(w, r)
		return
	}
	_, end := tr.start(fromHeader(r.Context(), r.Header.Get(spanHeader)), "campaign.handler."+route(r))
	defer end()
	t.h.ServeHTTP(w, r)
}

// route names a v1 API request by what it does.
func route(r *http.Request) string {
	switch p := r.URL.Path; {
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return "submit"
	case strings.HasSuffix(p, "/result"):
		return "result"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "status"
	default:
		return strings.TrimPrefix(p, "/v1/")
	}
}

// spanTransport tells the server which client span a request belongs to.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if current(r.Context()).id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, header(r.Context()))
	}
	return t.base.RoundTrip(r)
}

// campaignRun is a set-up campaign workload: a loopback server with the
// reprod defaults (2 parallel shards, a 1024-entry LRU, no checkpoint
// store) over a disk cache, and the clients' plans. A disk checkpoint
// store is left out: it replaces one file per job every window, and on
// ext4 a rename over an existing file costs about 70 ms, which turns a
// 4 ms fault-simulation job into seconds.
type campaignRun struct {
	dir        string
	srv        *campaign.Server
	handler    *tracedHandler
	hs         *httptest.Server
	transports []*http.Transport
	clients    []*campaign.Client
	plans      []*planner
	bar        *barrier

	served map[campaign.Key][]byte // first bytes served per key
	digest string                  // over every client's first pass

	// The current pass, written only by the barrier's decider.
	passCtx   context.Context
	passStart time.Time
	endPass   func()
}

func setupCampaign(cfg config) (instance, error) {
	dir, err := os.MkdirTemp(cfg.dir, "campaign-")
	if err != nil {
		return nil, err
	}
	cache, err := campaign.NewCache(0, filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	srv, err := campaign.NewServer(campaign.ServerConfig{
		Exec:  campaign.ExecConfig{Options: engine.Options{Workers: 0}},
		Cache: cache,
	})
	if err != nil {
		return nil, err
	}
	c := &campaignRun{
		dir:     dir,
		srv:     srv,
		handler: &tracedHandler{h: srv},
		bar:     newBarrier(campaignClients),
		served:  make(map[campaign.Key][]byte),
	}
	c.hs = httptest.NewServer(c.handler)
	for i := 0; i < campaignClients; i++ {
		tp := &http.Transport{MaxIdleConnsPerHost: 1}
		c.transports = append(c.transports, tp)
		c.clients = append(c.clients, &campaign.Client{Base: c.hs.URL, HTTP: &http.Client{Transport: spanTransport{tp}}})
		c.plans = append(c.plans, newPlanner(cfg.seed, i))
	}
	return c, nil
}

func (c *campaignRun) close() {
	c.hs.Close()
	c.srv.Close()
	for _, tp := range c.transports {
		tp.CloseIdleConnections()
	}
	os.RemoveAll(c.dir)
}

// opResult is one finished op.
type opResult struct {
	client, index int
	op            op
	ms            float64
	cached        bool
	polls         int
	body          []byte
	key           campaign.Key
	err           error
}

func (c *campaignRun) run(ctx context.Context, tr *tracer, deadline time.Time, r *record, between func()) error {
	c.handler.tr.Store(tr)
	defer c.handler.tr.Store(nil)
	before, err := c.clients[0].Stats(ctx)
	if err != nil {
		return err
	}

	// decide runs at every pass boundary, by the last client to arrive:
	// it closes the pass that ended and opens the next one unless the
	// deadline has passed.
	passes := 0
	var startMB float64
	c.passStart = time.Time{}
	decide := func() bool {
		now, mb := time.Now(), allocatedMB()
		if !c.passStart.IsZero() {
			c.endPass()
			r.passes = append(r.passes, float64(now.Sub(c.passStart).Nanoseconds())/1e6)
			r.allocMB = append(r.allocMB, mb-startMB)
			between()
		}
		if passes > 0 && !now.Before(deadline) {
			return false
		}
		c.passCtx, c.endPass = tr.start(withPass(ctx, passes), "pass")
		passes++
		startMB, c.passStart = allocatedMB(), time.Now()
		return true
	}
	results := make([][]opResult, campaignClients)
	var wg sync.WaitGroup
	for i := range c.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.loop(tr, i, decide)
		}(i)
	}
	wg.Wait()

	after, err := c.clients[0].Stats(ctx)
	if err != nil {
		return err
	}
	// all lists client 0's ops, then client 1's, each in plan order.
	var all []opResult
	for _, rs := range results {
		all = append(all, rs...)
	}
	var polls, executed float64
	twins := make(map[int]int) // twin op index -> clients that executed it
	for _, d := range all {
		r.attempted++
		if d.err == nil {
			if prev, ok := c.served[d.key]; !ok {
				c.served[d.key] = d.body
			} else if !bytes.Equal(prev, d.body) {
				d.err = fmt.Errorf("key %s served different bytes (cached=%v)", d.key, d.cached)
			}
		}
		if d.err == nil && d.op.kind == opRepeat && !d.cached {
			// Every repeat follows its first run's result, which the
			// server caches before it reports the job done.
			d.err = fmt.Errorf("repeat of key %s was executed again, not served from the cache", d.key)
		}
		if d.err != nil {
			r.fail(fmt.Errorf("client %d op %d: %w", d.client, d.index, d.err))
			continue
		}
		switch {
		case d.op.kind == opRepeat:
			r.ops = append(r.ops, d.ms)
			r.classes["hit_ms"] = append(r.classes["hit_ms"], d.ms)
		case !d.cached:
			r.classes["job_ms"] = append(r.classes["job_ms"], d.ms)
			polls += float64(d.polls)
			executed++
		}
		if d.op.kind == opTwin {
			n := twins[d.index]
			if !d.cached {
				n++
			}
			twins[d.index] = n
		}
	}
	if c.digest == "" {
		var first []byte
		for _, d := range all {
			if d.index < passOps {
				first = append(first, d.body...)
			}
		}
		c.digest = digestOf(first)
	}
	r.digest = c.digest

	r.counts["campaign.cache_hits"] = float64(after.Cache.Hits - before.Cache.Hits)
	r.counts["campaign.cache_misses"] = float64(after.Cache.Misses - before.Cache.Misses)
	r.counts["campaign.cache_diskhits"] = float64(after.Cache.DiskHits - before.Cache.DiskHits)
	if executed > 0 {
		r.counts["campaign.polls_per_job"] = polls / executed
	}
	if len(twins) > 0 {
		dups := 0
		for _, n := range twins {
			if n == campaignClients {
				dups++
			}
		}
		r.counts["campaign.twin_dup_frac"] = float64(dups) / float64(len(twins))
	}

	ctx = withPass(ctx, -1)
	c.verify(ctx, tr, all, r)
	if tr != nil {
		// Every submit keys its spec, which re-synthesizes the circuit;
		// time that on its own, outside the loop.
		for _, d := range all {
			if err := tr.do(ctx, "campaign.JobKey", func(context.Context) error {
				_, err := campaign.JobKey(d.op.spec)
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// loop runs client i's passes until the decider ends the run.
func (c *campaignRun) loop(tr *tracer, i int, decide func() bool) []opResult {
	goOn := func() bool { return true }
	var out []opResult
	for c.bar.await(decide) {
		first := c.plans[i].n
		ops := c.plans[i].nextPass()
		for k, o := range ops[:passExec] {
			if k > 0 && k%roundExec == 0 {
				c.bar.await(goOn) // the round's twin
			}
			d := c.do(c.passCtx, tr, i, o)
			d.index = first + k
			out = append(out, d)
			time.Sleep(thinkTime)
		}
		// The repeats: each barrier lets the next client in, so the first
		// waits for every execution and each later one for the client
		// before it.
		for turn := 0; turn < campaignClients; turn++ {
			c.bar.await(goOn)
			if turn != i {
				continue
			}
			for k, o := range ops[passExec:] {
				d := c.do(c.passCtx, tr, i, o)
				d.index = first + passExec + k
				out = append(out, d)
			}
		}
	}
	return out
}

// do sends one job and waits for its result bytes: submit, then a
// status poll every pollEvery until the job leaves pending and running,
// then the result.
func (c *campaignRun) do(ctx context.Context, tr *tracer, client int, o op) opResult {
	d := opResult{client: client, op: o}
	cl := c.clients[client]
	ctx, end := tr.start(ctx, "campaign.op")
	defer end()
	t := time.Now()
	var st *campaign.JobStatus
	d.err = tr.do(ctx, "campaign.Submit", func(ctx context.Context) (err error) {
		st, err = cl.Submit(ctx, o.spec)
		return err
	})
	for d.err == nil && (st.State == "pending" || st.State == "running") {
		tr.do(ctx, "campaign.wait", func(context.Context) error {
			time.Sleep(pollEvery)
			return nil
		})
		d.polls++
		d.err = tr.do(ctx, "campaign.Status", func(ctx context.Context) (err error) {
			st, err = cl.Status(ctx, st.ID)
			return err
		})
	}
	if d.err == nil && st.State != "done" {
		d.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if d.err == nil {
		d.err = tr.do(ctx, "campaign.Result", func(ctx context.Context) (err error) {
			d.body, err = cl.Result(ctx, st.ID)
			return err
		})
	}
	d.ms = msSince(t)
	if st != nil {
		d.cached, d.key = st.Cached, st.Key
	}
	return d
}

// verify executes the first verifyPerKind distinct specs of each kind
// in-process and counts a failure for each whose bytes differ from what
// the server served.
func (c *campaignRun) verify(ctx context.Context, tr *tracer, all []opResult, r *record) {
	seen := make(map[campaign.Key]bool)
	perKind := make(map[string]int)
	for _, d := range all {
		kind := string(d.op.spec.Kind) + "." + d.op.spec.Circuit
		if d.err != nil || seen[d.key] || perKind[kind] == verifyPerKind {
			continue
		}
		seen[d.key] = true
		perKind[kind]++
		var b []byte
		err := tr.do(ctx, "campaign.Execute."+kind, func(context.Context) error {
			rep, err := campaign.Execute(d.op.spec, nil)
			if err != nil {
				return err
			}
			b, err = rep.Encode()
			return err
		})
		if err == nil && !bytes.Equal(b, c.served[d.key]) {
			err = fmt.Errorf("in-process %s job %s differs from the served bytes", kind, d.key)
		}
		if err != nil {
			r.fail(err)
		}
	}
}
