package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/engine"
)

// ServerConfig configures a campaign server.
type ServerConfig struct {
	// Exec carries the execution knob (engine Workers) and the
	// optional checkpoint store local jobs run under. The Ctx and
	// Progress fields are ignored: each job gets its own cancellation
	// context and progress aggregation.
	Exec ExecConfig
	// Cache is the content-addressed result store (a memory-only default
	// is created when nil).
	Cache *Cache
	// Parallel bounds concurrently executing local shards (default 2).
	// A submitted FaultSim job splits into Parallel shards plus one per
	// peer.
	Parallel int
	// Peers lists base URLs of remote campaign servers (e.g.
	// "http://host:9190") that shard execution fans out to, round-robin
	// with the local pool.
	Peers []string
}

// jobState is the lifecycle of a submitted job.
type jobState string

const (
	statePending   jobState = "pending"
	stateRunning   jobState = "running"
	stateDone      jobState = "done"
	stateFailed    jobState = "failed"
	stateCancelled jobState = "cancelled"
)

// JobStatus is the wire form of a job's observable state.
type JobStatus struct {
	ID    string `json:"id"`
	Key   Key    `json:"key"`
	State string `json:"state"`
	// Cached reports that the result was served from the content cache
	// without executing.
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
	// Done/Total aggregate per-shard progress (windows for FaultSim jobs,
	// targets for MutationTG/ATPG ones).
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Stats is the /v1/stats payload.
type Stats struct {
	Cache CacheStats     `json:"cache"`
	Jobs  map[string]int `json:"jobs"`
}

type job struct {
	id     string
	key    Key
	cancel context.CancelFunc

	mu       sync.Mutex
	state    jobState
	cached   bool
	err      error
	progress []engine.Stats // one slot per shard
	result   []byte         // canonical report bytes when done
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.id, Key: j.key, State: string(j.state), Cached: j.cached}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	for _, p := range j.progress {
		st.Done += p.Done
		st.Total += p.Total
	}
	return st
}

// Server is the campaign job service: it accepts job submissions,
// serves repeats from the content-addressed cache, decomposes fresh
// jobs into shards, executes them across local worker slots and remote
// peers, and merges shard reports. It implements http.Handler.
//
// Each request's spec is elaborated once, when it arrives: the key,
// the decomposition and every local shard use that elaboration, and the
// shards share it (a peer elaborates the shard spec it is sent). The job
// table keeps neither the spec nor the elaboration.
type Server struct {
	cfg   ServerConfig
	cache *Cache
	mux   *http.ServeMux
	slots chan struct{} // local execution slots

	mu     sync.Mutex
	nextID int
	jobs   map[string]*job
	wg     sync.WaitGroup
}

// NewServer builds a campaign server from the configuration.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Parallel <= 0 {
		cfg.Parallel = 2
	}
	cache := cfg.Cache
	if cache == nil {
		var err error
		if cache, err = NewCache(0, ""); err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:   cfg,
		cache: cache,
		mux:   http.NewServeMux(),
		slots: make(chan struct{}, cfg.Parallel),
		jobs:  make(map[string]*job),
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/execute", s.handleExecute)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s, nil
}

// ServeHTTP dispatches to the v1 API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close cancels every running job and waits for workers to drain.
func (s *Server) Close() {
	s.mu.Lock()
	for _, j := range s.jobs {
		j.cancel()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// maxSpecBytes bounds a job spec body; the largest in-repo netlist is
// about 9 KB of .bench text.
const maxSpecBytes = 1 << 20

// elaborate decodes and elaborates a request's job spec. When either
// fails it answers the request (413 past maxSpecBytes, 400 otherwise)
// and returns nil.
func elaborate(w http.ResponseWriter, r *http.Request) *prepared {
	var sp Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "decoding job spec: %v", err)
		return nil
	}
	pr, err := prepare(sp)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	return pr
}

// handleSubmit registers a job and starts it. A cache hit completes the
// job synchronously without executing anything.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	pr := elaborate(w, r)
	if pr == nil {
		return
	}
	key := pr.key()
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{key: key, cancel: cancel, state: statePending}
	s.mu.Lock()
	s.nextID++
	j.id = fmt.Sprintf("j%d", s.nextID)
	s.jobs[j.id] = j
	s.mu.Unlock()

	if b := s.cache.Get(key); b != nil {
		j.mu.Lock()
		j.state, j.cached, j.result = stateDone, true, b
		j.mu.Unlock()
		cancel()
		writeJSON(w, j.status())
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		s.runJob(ctx, j, pr)
	}()
	writeJSON(w, j.status())
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, j.status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state, result, err := j.state, j.result, j.err
	j.mu.Unlock()
	switch state {
	case stateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(result)
	case stateFailed, stateCancelled:
		httpError(w, http.StatusConflict, "job %s %s: %v", j.id, state, err)
	default:
		httpError(w, http.StatusConflict, "job %s still %s", j.id, state)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		j.cancel()
		w.WriteHeader(http.StatusNoContent)
	}
}

// handleExecute runs one spec synchronously and returns its canonical
// report bytes — the endpoint peers use for shard fan-out. The
// X-Repro-Cache trailer-free header reports hit or miss.
func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	pr := elaborate(w, r)
	if pr == nil {
		return
	}
	if b := s.cache.Get(pr.key()); b != nil {
		w.Header().Set("X-Repro-Cache", "hit")
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
		return
	}
	b, err := s.executeLocal(r.Context(), pr, nil)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("X-Repro-Cache", "miss")
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := Stats{Cache: s.cache.Stats(), Jobs: make(map[string]int)}
	s.mu.Lock()
	for _, j := range s.jobs {
		j.mu.Lock()
		st.Jobs[string(j.state)]++
		j.mu.Unlock()
	}
	s.mu.Unlock()
	writeJSON(w, st)
}

// executeLocal runs an elaborated job or shard on a local worker slot,
// consulting and feeding the cache, and returns the canonical report
// bytes. It elaborates nothing: the shards of one job run here at once
// on their shared elaboration.
func (s *Server) executeLocal(ctx context.Context, pr *prepared, progress func(engine.Stats)) ([]byte, error) {
	key := pr.key()
	if b := s.cache.Get(key); b != nil {
		return b, nil
	}
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.slots }()
	cfg := s.cfg.Exec
	cfg.Ctx = ctx
	cfg.Progress = progress
	rep, err := pr.execute(&cfg)
	if err != nil {
		return nil, err
	}
	b, err := rep.Encode()
	if err != nil {
		return nil, err
	}
	if err := s.cache.Put(key, b); err != nil {
		return nil, err
	}
	return b, nil
}

// executeRemote runs one spec on a peer via its /v1/execute endpoint.
// The reply is checked before the local cache takes it: it must decode to
// a report of the spec's kind and key whose canonical encoding is the
// reply itself. A reply that fails is an error, as an unreachable peer
// is.
func (s *Server) executeRemote(ctx context.Context, peer string, sp Spec, key Key) (*Report, error) {
	c := &Client{Base: peer}
	b, _, err := c.Execute(ctx, sp)
	if err != nil {
		return nil, err
	}
	rep, err := DecodeReport(b)
	if err != nil {
		return nil, fmt.Errorf("peer %s: %w", peer, err)
	}
	if rep.Kind != sp.Kind || rep.Key != key {
		return nil, fmt.Errorf("peer %s: got a %s report keyed %s, want %s keyed %s", peer, rep.Kind, rep.Key, sp.Kind, key)
	}
	if canon, err := rep.Encode(); err != nil || !bytes.Equal(canon, b) {
		return nil, fmt.Errorf("peer %s: report is not canonically encoded", peer)
	}
	if err := s.cache.Put(key, b); err != nil {
		return nil, err
	}
	return rep, nil
}

// runJob executes one submitted job: decompose into shards, fan the
// shards across the local pool and the peers, merge, cache, complete.
func (s *Server) runJob(ctx context.Context, j *job, pr *prepared) {
	b, err := s.runSharded(ctx, j, pr)
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case err == nil:
		j.state, j.result = stateDone, b
	case ctx.Err() != nil:
		j.state, j.err = stateCancelled, ctx.Err()
	default:
		j.state, j.err = stateFailed, err
	}
}

func (s *Server) runSharded(ctx context.Context, j *job, pr *prepared) ([]byte, error) {
	j.mu.Lock()
	j.state = stateRunning
	j.mu.Unlock()

	shards := pr.shards(s.cfg.Parallel + len(s.cfg.Peers))
	if shards == nil {
		// Indivisible job: run it whole on the local pool.
		j.mu.Lock()
		j.progress = make([]engine.Stats, 1)
		j.mu.Unlock()
		return s.executeLocal(ctx, pr, j.progressSink(0))
	}
	j.mu.Lock()
	j.progress = make([]engine.Stats, len(shards))
	j.mu.Unlock()

	reports := make([]*Report, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, shard := range shards {
		wg.Add(1)
		go func(i int, shard *prepared) {
			defer wg.Done()
			reports[i], errs[i] = s.runShard(ctx, j, i, shard)
		}(i, shard)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged, err := MergeShards(pr.spec, j.key, reports)
	if err != nil {
		return nil, err
	}
	b, err := merged.Encode()
	if err != nil {
		return nil, err
	}
	if err := s.cache.Put(j.key, b); err != nil {
		return nil, err
	}
	return b, nil
}

// runShard executes shard i of a job, round-robining across the local
// pool (slot 0) and the configured peers, with a local fallback when a
// peer is unreachable or its reply fails executeRemote's check.
func (s *Server) runShard(ctx context.Context, j *job, i int, shard *prepared) (*Report, error) {
	if target := i % (1 + len(s.cfg.Peers)); target > 0 {
		rep, err := s.executeRemote(ctx, s.cfg.Peers[target-1], shard.spec, shard.key())
		if err == nil {
			j.progressSink(i)(engine.Stats{Done: 1, Total: 1})
			return rep, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Peer failure, or a reply that fails its check, is not job
		// failure: fall through to local execution.
	}
	b, err := s.executeLocal(ctx, shard, j.progressSink(i))
	if err != nil {
		return nil, err
	}
	return DecodeReport(b)
}

// progressSink returns the progress hook for shard i of the job.
func (j *job) progressSink(i int) func(engine.Stats) {
	return func(st engine.Stats) {
		j.mu.Lock()
		if i < len(j.progress) {
			j.progress[i] = st
		}
		j.mu.Unlock()
	}
}
