package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary: the benchmark records one
// around every public call it makes into the program. IDs start at 1;
// Parent 0 marks a root. Start and End are nanoseconds since the trace
// began. Pass numbers the workload pass (or campaign op) the span
// belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Pass   int    `json:"pass"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanCtx is the span a context is inside of.
type spanCtx struct{ id, pass int }

type spanKey struct{}

func current(ctx context.Context) spanCtx {
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	return sc
}

func noop() {}

// withPass marks ctx as belonging to pass p; spans opened under it
// carry the number.
func withPass(ctx context.Context, p int) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{id: current(ctx).id, pass: p})
}

// start opens a span named name under the span ctx is inside of and
// returns the context for its children plus the function that ends it.
func (t *tracer) start(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, noop
	}
	parent := current(ctx)
	i := t.open(parent, name)
	return context.WithValue(ctx, spanKey{}, spanCtx{id: i + 1, pass: parent.pass}), func() { t.close(i) }
}

// do runs f inside a span named name.
func (t *tracer) do(ctx context.Context, name string, f func(context.Context) error) error {
	ctx, end := t.start(ctx, name)
	defer end()
	return f(ctx)
}

func (t *tracer) open(parent spanCtx, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	i := len(t.spans)
	t.spans = append(t.spans, span{ID: i + 1, Parent: parent.id, Name: name, Start: now, Pass: parent.pass})
	return i
}

func (t *tracer) close(i int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// header encodes the span ctx is inside of for another goroutine (the
// campaign handler) to open children under.
func header(ctx context.Context) string {
	sc := current(ctx)
	return strconv.Itoa(sc.id) + "/" + strconv.Itoa(sc.pass)
}

// fromHeader is the inverse of header; a malformed value yields a root.
func fromHeader(ctx context.Context, h string) context.Context {
	id, pass, _ := strings.Cut(h, "/")
	sc := spanCtx{}
	sc.id, _ = strconv.Atoi(id)
	sc.pass, _ = strconv.Atoi(pass)
	return context.WithValue(ctx, spanKey{}, sc)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the spans as JSON to path.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(map[string][]span{"spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns every span's self time in nanoseconds, keyed by ID:
// its duration minus the union of its children's intervals, each clipped
// to the span. Children may overlap each other (concurrent clients, a
// handler running on the server's goroutine); overlapping time is
// subtracted once.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered measures the union of the kids' intervals inside s.
func covered(s span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, lo, hi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			lo, hi = v.lo, v.hi
		case v.lo > hi:
			sum += hi - lo
			lo, hi = v.lo, v.hi
		default:
			hi = max(hi, v.hi)
		}
	}
	if len(ivs) > 0 {
		sum += hi - lo
	}
	return sum
}
