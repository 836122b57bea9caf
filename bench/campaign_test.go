package main

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/campaign"
)

func planPasses(seed int64, client, passes int) []op {
	p := newPlanner(seed, client)
	var out []op
	for i := 0; i < passes; i++ {
		out = append(out, p.nextPass()...)
	}
	return out
}

func TestPlanSameSeedSameOps(t *testing.T) {
	a, b := planPasses(7, 1, 3), planPasses(7, 1, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed planned different ops")
	}
	if reflect.DeepEqual(a, planPasses(8, 1, 3)) {
		t.Fatal("another seed planned the same ops")
	}
}

func TestPlanMakeup(t *testing.T) {
	ops := planPasses(1, 0, 3)
	seen := make(map[campaign.Spec]bool)
	for pass := 0; pass < 3; pass++ {
		kinds := make(map[opKind]int)
		fresh := make(map[string]int)
		repeats := make(map[string]int)
		p := ops[pass*passOps : (pass+1)*passOps]
		for i, o := range p {
			kinds[o.kind]++
			if (o.kind == opTwin) != (i < passExec && i%roundExec == 0) {
				t.Fatalf("pass %d op %d: twin %v, want twins exactly at round starts", pass, i, o.kind == opTwin)
			}
			// Repeats follow every execution of the pass.
			if (o.kind == opRepeat) != (i >= passExec) {
				t.Fatalf("pass %d op %d: repeat %v, want repeats exactly after the executions", pass, i, o.kind == opRepeat)
			}
			switch o.kind {
			case opRepeat:
				if !seen[o.spec] {
					t.Fatalf("pass %d op %d repeats a spec the client never submitted", pass, i)
				}
			default:
				if seen[o.spec] {
					t.Fatalf("pass %d op %d: fresh spec %+v was already submitted", pass, i, o.spec)
				}
				seen[o.spec] = true
			}
			switch o.kind {
			case opFresh:
				fresh[string(o.spec.Kind)+o.spec.Circuit]++
			case opRepeat:
				repeats[string(o.spec.Kind)+o.spec.Circuit]++
			}
		}
		if kinds[opTwin] != passRounds || kinds[opFresh] != passFresh || kinds[opRepeat] != passRepeats {
			t.Fatalf("pass %d make-up %v", pass, kinds)
		}
		if len(fresh) != len(freshKinds) || len(repeats) != len(freshKinds) {
			t.Fatalf("pass %d: fresh kinds %v, repeated kinds %v, want all %d", pass, fresh, repeats, len(freshKinds))
		}
		for k := range fresh {
			if fresh[k] != passFresh/len(freshKinds) || repeats[k] != passRepeats/len(freshKinds) {
				t.Fatalf("pass %d: %d fresh and %d repeated %s specs, want %d and %d", pass,
					fresh[k], repeats[k], k, passFresh/len(freshKinds), passRepeats/len(freshKinds))
			}
		}
	}
}

func TestPlanTwinsShared(t *testing.T) {
	a, b := planPasses(5, 0, 2), planPasses(5, 1, 2)
	for i := range a {
		if a[i].kind == opTwin && a[i].spec != b[i].spec {
			t.Fatalf("op %d: clients planned different twins", i)
		}
		if a[i].kind == opFresh && b[i].kind == opFresh && a[i].spec == b[i].spec {
			t.Fatalf("op %d: clients share a fresh spec", i)
		}
	}
}

func TestBarrierReleasesEveryoneWithOneDecision(t *testing.T) {
	const parties, rounds = 3, 200
	b := newBarrier(parties)
	decisions := 0
	decide := func() bool {
		decisions++ // only the last arriver runs decide, under the barrier's lock
		return decisions < rounds
	}
	got := make([]int, parties)
	var wg sync.WaitGroup
	for i := 0; i < parties; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for b.await(decide) {
				got[i]++
			}
		}(i)
	}
	wg.Wait()
	for i, n := range got {
		if n != rounds-1 {
			t.Errorf("party %d went on %d times, want %d", i, n, rounds-1)
		}
	}
	if decisions != rounds {
		t.Errorf("decide ran %d times, want once per round (%d)", decisions, rounds)
	}
}
