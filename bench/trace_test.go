package main

import (
	"context"
	"testing"
)

func selfOf(t *testing.T, spans []span) map[string]int64 {
	t.Helper()
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] = self[s.ID]
	}
	return out
}

func TestSelfTimeNested(t *testing.T) {
	got := selfOf(t, []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a.child", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "b", Start: 50, End: 70},
	})
	// A grandchild counts against its parent, not the root.
	want := map[string]int64{"root": 50, "a": 20, "a.child": 10, "b": 20}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %d, want %d", k, got[k], v)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	got := selfOf(t, []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two concurrent children covering [10,70] together, and one that
		// outlives the root and is clipped to [90,100].
		{ID: 2, Parent: 1, Name: "x", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "y", Start: 30, End: 70},
		{ID: 4, Parent: 1, Name: "z", Start: 90, End: 120},
		// Contained entirely in x and y: adds nothing to the union.
		{ID: 5, Parent: 1, Name: "w", Start: 35, End: 45},
	})
	if got["root"] != 30 {
		t.Errorf("self(root) = %d, want 30", got["root"])
	}
	if got["z"] != 30 {
		t.Errorf("self(z) = %d, want its whole duration 30", got["z"])
	}
}

func TestTracerParentsAndPasses(t *testing.T) {
	var none *tracer
	ctx, end := none.start(context.Background(), "ignored")
	end()
	if current(ctx).id != 0 || none.snapshot() != nil {
		t.Fatal("a nil tracer must record nothing")
	}

	tr := newTracer()
	ctx, endPass := tr.start(withPass(context.Background(), 3), "pass")
	inner, endInner := tr.start(ctx, "core.NewFlow")
	// The handler side sees the client's span through the header.
	remote, endRemote := tr.start(fromHeader(context.Background(), header(inner)), "campaign.handler.submit")
	endRemote()
	endInner()
	endPass()
	_ = remote
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Parent != 0 || spans[1].Parent != spans[0].ID || spans[2].Parent != spans[1].ID {
		t.Fatalf("parents %d %d %d, want 0 %d %d", spans[0].Parent, spans[1].Parent, spans[2].Parent, spans[0].ID, spans[1].ID)
	}
	for _, s := range spans {
		if s.Pass != 3 || s.End < s.Start {
			t.Errorf("span %+v: want pass 3 and End >= Start", s)
		}
	}
}
