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

// Every component on E19's kernel shares one cell pool and returns every
// cell it finishes with, so the pool allocates only while the flows' slow
// starts push the cells in flight to a new peak. That peak is bounded by
// the path (the bandwidth-delay product plus the switch buffer, plus a
// frame per flow), not by the traffic carried, and once the windows have
// opened (about five RTTs) fresh allocations stop. (With a pool per
// interface, the senders allocated nearly every cell they sent and the
// receiver's free list grew with every cell delivered.)
func TestE19PoolStopsAllocatingAfterSlowStart(t *testing.T) {
	net, _, depth := buildE19(0.5, true)
	k := net.Kernel()
	pool := net.Endpoint("a").Interface().Pool()
	if pool != net.Endpoint("c").Interface().Pool() {
		t.Fatal("endpoints on one kernel have different cell pools")
	}
	k.RunUntil(sim.Time(8 * e19RTT))
	_, _, warm := pool.Stats()
	k.RunUntil(sim.Time(300 * sim.Millisecond))
	gets, _, fresh := pool.Stats()
	if fresh-warm > e19FrameCells {
		t.Errorf("%d fresh cells after %v of warm-up (%d before), want at most %d",
			fresh-warm, 8*e19RTT, warm, e19FrameCells)
	}
	if limit := uint64(e19BDPCells() + depth + e19Flows*e19FrameCells); fresh > limit {
		t.Errorf("%d fresh cells for %d gets, want at most the %d cells the path holds", fresh, gets, limit)
	}
	if gets < 4*fresh {
		t.Errorf("%d gets for %d fresh cells: the pool is barely recycling", gets, fresh)
	}
}
