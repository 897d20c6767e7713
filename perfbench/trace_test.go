package main

import (
	"sync"
	"testing"
)

func TestSelfTimeNestedAndConcurrentChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// Two children that ran concurrently and overlap on [30, 40].
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		// A child that outlives its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild is the child's business, not the op's.
		{ID: 5, Parent: 2, Name: "a.inner", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if byName["op"] != 40e-6 || byName["a"] != 20e-6 {
		t.Errorf("self time by name = %v", byName)
	}
}

func TestCoveredMergesTouchingAndContainedIntervals(t *testing.T) {
	ivs := [][2]int64{{50, 60}, {0, 10}, {10, 20}, {2, 5}, {55, 58}, {70, 70}}
	if got := covered(ivs, 0, 100); got != 30 {
		t.Errorf("covered = %d, want 30", got)
	}
	if got := covered(ivs, 5, 55); got != 20 {
		t.Errorf("covered clipped to [5, 55] = %d, want 20", got)
	}
}

// Children opened from several goroutines at once are all recorded under
// their parent, and the parent's self time is never negative.
func TestTracerConcurrentChildren(t *testing.T) {
	tr := newTracer()
	root, end := tr.start("op", 0, 1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, end := tr.start("child", root, 1)
			end()
		}()
	}
	wg.Wait()
	end()
	spans := tr.snapshot()
	if len(spans) != 9 {
		t.Fatalf("recorded %d spans, want 9", len(spans))
	}
	for id, s := range selfTimes(spans) {
		if s < 0 {
			t.Errorf("span %d has negative self time %d", id, s)
		}
	}
	var nilTracer *tracer
	if id, end := nilTracer.start("x", 0, 0); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	} else {
		end()
	}
}
