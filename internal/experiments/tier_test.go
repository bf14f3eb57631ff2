package experiments

import (
	"testing"

	"repro/internal/sim"
)

// E19's 5 ms hops hold thousands of cells in flight. Every fiber and the
// switch fabric defer cells through delay lines, so the overflow heap sees
// only timers and the head of a line going from idle to busy:
// heap inserts stay a small fraction of dispatches, and the queue holds a
// few dozen events, not one per cell in flight. (With one kernel event per
// cell in flight, this run put 111,797 of its 403,214 dispatches through
// the heap, with 5,344 queued there at once.)
func TestE19HeapHoldsOnlyTimersAndLineHeads(t *testing.T) {
	var k *sim.Kernel
	prev := newKernel
	newKernel = func() *sim.Kernel { k = sim.NewKernel(); return k }
	defer func() { newKernel = prev }()
	runE19(0.5, true, 300*sim.Millisecond)
	ts, n := k.Tier(), k.Dispatched()
	if ts.WheelInserts+ts.HeapInserts < n {
		t.Fatalf("%d inserts for %d dispatches", ts.WheelInserts+ts.HeapInserts, n)
	}
	if frac := float64(ts.HeapInserts) / float64(n); frac > 0.01 {
		t.Errorf("%d heap inserts in %d dispatches (%.2f%%), want under 1%%", ts.HeapInserts, n, 100*frac)
	}
	if ts.HeapHW > 100 || ts.PendingHW > 100 {
		t.Errorf("queue high-water: heap %d, pending %d; want both under 100", ts.HeapHW, ts.PendingHW)
	}
}
