// Conservative parallel execution: a Group runs one kernel per topology
// partition, each on its own goroutine (partition 0 on the caller's),
// advancing all of them in lock-step windows bounded by the minimum
// cross-partition link delay (the lookahead). Inside a window every kernel
// is an ordinary serial simulator; traffic that crosses a partition
// boundary is appended to a Mailbox by the sending shard and drained into
// the receiving kernel at the barrier between windows. Because a cell sent
// at time t over a link with delay D arrives at t+D >= windowEnd whenever
// D >= window width, no kernel can ever receive an event in its past — the
// classic Chandy–Misra argument, with the lock-step window playing the role
// of the null message.
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// boundaryCall is the closure-free callback pair of one cross-partition
// event.
type boundaryCall struct {
	afn func(any)
	arg any
}

func runBoundary(c boundaryCall) { c.afn(c.arg) }

// Mailbox carries events across one directed partition boundary (one cut
// link direction). Post is called only by the source partition's goroutine
// while a window executes; drain is called only by the coordinator between
// windows. The barrier's atomic window generation and outstanding-shard
// count give the happens-before edges, so no locking is needed. Drained
// items enter a DelayLine in the destination kernel under their sender's
// keys: one cut link direction is a FIFO, so the mailbox keeps one event
// queued there, not one per item.
type Mailbox struct {
	src       *Kernel
	lane      int32 // source partition rank, stamped on every item
	lookahead Duration
	items     []lineEntry[boundaryCall]
	line      *DelayLine[boundaryCall] // in the destination kernel
	handoff   func(any) any            // optional argument exchange at drain
}

// Post enqueues afn(arg) to run in the destination partition at absolute
// time at. pt must be the sending kernel's current time; the item draws a
// sequence number from the sending kernel so that several same-instant
// sends keep their order, exactly as serial link posts would.
func (m *Mailbox) Post(at, pt Time, afn func(any), arg any) {
	seq := m.src.seq
	m.src.seq++
	m.items = append(m.items, lineEntry[boundaryCall]{
		evKey: evKey{at: at, pt: pt, lane: m.lane, seq: seq},
		v:     boundaryCall{afn: afn, arg: arg},
	})
}

// SetHandoff installs fn to run on every item's argument as the barrier
// drains it, replacing the argument with fn's result. fn runs on the
// coordinator while every partition is stopped, so it may touch state owned
// by both the source and the destination partition: a cut link uses it to
// exchange each crossing cell for one from the destination kernel's pool.
func (m *Mailbox) SetHandoff(fn func(arg any) any) { m.handoff = fn }

// Lookahead reports the link propagation delay this mailbox declared.
func (m *Mailbox) Lookahead() Duration { return m.lookahead }

// Len reports how many items are waiting to be drained.
func (m *Mailbox) Len() int { return len(m.items) }

// drain moves every queued item into the destination kernel's line.
// Coordinator only, between windows.
func (m *Mailbox) drain() {
	for i := range m.items {
		it := &m.items[i]
		if m.handoff != nil {
			it.v.arg = m.handoff(it.v.arg)
		}
		m.line.push(it.evKey, it.v)
		it.v = boundaryCall{}
	}
	m.items = m.items[:0]
}

// Barrier waits spin before they park: a window is tens of microseconds of
// host work, so a futex sleep and wake per window would cost a large share
// of it. A shard that waits for the next window polls for it first.
// spinPolls bounds the polls (about 0.2 ms on a 2-vCPU x86 VM) and
// yieldEvery spaces the runtime.Gosched calls that let goroutines queued
// behind a spinner run.
const (
	spinPolls  = 1 << 15
	yieldEvery = 32
)

// waiter is one side of the barrier that may sleep: a parked flag and the
// 1-buffered channel its waker signals.
type waiter struct {
	parked atomic.Bool
	wake   chan struct{}
}

// wait returns once ready reports true. When spin is set it polls ready up
// to spinPolls times before it parks. A parking waiter raises its flag
// before it checks ready again, and a waker makes ready true before it
// reads the flag (Dekker), so one of the two always sees the other and no
// wake is lost. Every token a waker sends is received here, so none is
// left over for a later wait.
func (w *waiter) wait(spin bool, ready func() bool) {
	if spin {
		for i := 1; i <= spinPolls; i++ {
			if ready() {
				return
			}
			if i%yieldEvery == 0 {
				runtime.Gosched()
			}
		}
	}
	for {
		w.parked.Store(true)
		if ready() {
			if !w.parked.CompareAndSwap(true, false) {
				<-w.wake // a waker claimed the flag: take its token
			}
			return
		}
		<-w.wake
	}
}

// signal wakes w if it is parked. Call it after making w's condition true.
func (w *waiter) signal() {
	if w.parked.CompareAndSwap(true, false) {
		w.wake <- struct{}{}
	}
}

// clockBase anchors hostNanos, the monotonic host clock of GroupStats.
var clockBase = time.Now()

func hostNanos() int64 { return int64(time.Since(clockBase)) }

// shard is one partition kernel and the host time it spends in and between
// windows. Only the goroutine running the shard writes its fields.
type shard struct {
	waiter
	k      *Kernel
	busyNs int64
	waitNs int64
	end    int64 // host time the shard's last window ended
}

// run executes one window on the shard's kernel. epoch is the host time at
// which the current Run call began, so time between calls is not counted
// as waiting.
func (s *shard) run(limit Time, epoch int64) {
	t0 := hostNanos()
	s.waitNs += t0 - max(s.end, epoch)
	s.k.RunBefore(limit)
	s.end = hostNanos()
	s.busyNs += s.end - t0
}

// ShardStats is one partition's host time: BusyNs inside its kernel's
// windows, WaitNs between them (at the barrier, and for partition 0, which
// the coordinator runs, also draining the mailboxes).
type ShardStats struct {
	BusyNs int64
	WaitNs int64
}

// GroupStats is the executor's account of itself. Windows, IdleJumps and
// Drained depend only on the simulation; the host times do not.
type GroupStats struct {
	Windows   uint64       // lock-step windows run
	IdleJumps uint64       // windows opened a window width or more past the previous window's end
	Drained   uint64       // mailbox items moved between partitions at barriers
	WallNs    int64        // host time inside Run and RunUntil
	Shards    []ShardStats // per partition, in lane order
}

// Group is the conservative parallel executor: a set of partition kernels,
// the mailboxes connecting them, and the lock-step window width (the
// minimum mailbox lookahead). A Group with one kernel and no mailboxes
// degenerates to the serial kernel run one window at a time.
//
// The coordinator (the goroutine calling Run) runs partition 0 itself;
// partitions 1..n-1 each run on a worker goroutine. A window opens when the
// coordinator publishes its limit and bumps the window generation; each
// worker runs it and decrements the count of outstanding workers; the
// window closes when the coordinator, done with partition 0, sees that
// count reach zero. Both sides spin before they park, but only while every
// shard can have a P of its own: oversubscribed spinning starves the
// shards it waits for.
type Group struct {
	kernels   []*Kernel
	mailboxes []*Mailbox
	window    Duration // min lookahead across mailboxes; Never when none

	now     Time // logical group clock: high-water mark of finished windows
	started bool
	spin    bool     // barrier waits poll before they park: shards <= GOMAXPROCS
	shards  []*shard // shards[0] runs on the coordinator
	exited  sync.WaitGroup

	// Written by the coordinator before it bumps gen; read by workers
	// after they observe the new generation. limit stays the exclusive
	// end of the last window run.
	limit Time
	epoch int64
	quit  bool

	gen     atomic.Uint64 // window generation
	pending atomic.Int32  // workers still running the current window
	coord   waiter        // the coordinator, waiting for pending to reach 0

	windows, jumps, drained uint64
	wallNs                  int64
}

// NewGroup builds an executor over the given kernels, assigning each its
// lane (partition rank) in slice order. The kernels must not be driven
// directly once grouped; use the Group's Run methods.
func NewGroup(kernels []*Kernel) *Group {
	if len(kernels) == 0 {
		panic("sim: NewGroup with no kernels")
	}
	g := &Group{kernels: kernels, window: Never}
	g.coord.wake = make(chan struct{}, 1)
	for i, k := range kernels {
		k.SetLane(int32(i))
		g.shards = append(g.shards, &shard{k: k, waiter: waiter{wake: make(chan struct{}, 1)}})
	}
	return g
}

// Kernels returns the partition kernels in lane order.
func (g *Group) Kernels() []*Kernel { return g.kernels }

// Window reports the lock-step window width: the minimum lookahead declared
// across all mailboxes (Never when the group has no boundaries).
func (g *Group) Window() Duration { return g.window }

// Mailbox creates and registers the conduit for one cut-link direction from
// kernel src to kernel dst, declaring the link's propagation delay as
// lookahead. The group window shrinks to the smallest declared lookahead.
func (g *Group) Mailbox(src, dst *Kernel, lookahead Duration) *Mailbox {
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: mailbox lookahead %v must be positive (zero-delay links cannot cross partitions)", lookahead))
	}
	m := &Mailbox{src: src, lane: src.lane, lookahead: lookahead,
		line: NewDelayLine(dst, runBoundary)}
	g.mailboxes = append(g.mailboxes, m)
	if lookahead < g.window {
		g.window = lookahead
	}
	return m
}

// Now returns the logical group time: every kernel has finished all work
// strictly before (RunUntil: up to and including) this time.
func (g *Group) Now() Time { return g.now }

// Stats reports the executor's counters and host times so far. Call it
// from the goroutine that runs the group, between runs.
func (g *Group) Stats() GroupStats {
	st := GroupStats{Windows: g.windows, IdleJumps: g.jumps, Drained: g.drained, WallNs: g.wallNs}
	for _, s := range g.shards {
		st.Shards = append(st.Shards, ShardStats{BusyNs: s.busyNs, WaitNs: s.waitNs})
	}
	return st
}

// start launches one persistent worker goroutine per partition after the
// first and decides whether barrier waits may spin.
func (g *Group) start() {
	if g.started {
		return
	}
	g.started = true
	g.quit = false
	g.spin = len(g.kernels) <= runtime.GOMAXPROCS(0)
	for _, s := range g.shards[1:] {
		g.exited.Add(1)
		go g.worker(s, g.gen.Load())
	}
}

// worker runs partition s's windows: wait for the generation after seen,
// run the published window, report done.
func (g *Group) worker(s *shard, seen uint64) {
	defer g.exited.Done()
	for {
		s.wait(g.spin, func() bool { return g.gen.Load() != seen })
		seen++
		if g.quit {
			return
		}
		s.run(g.limit, g.epoch)
		if g.pending.Add(-1) == 0 {
			g.coord.signal()
		}
	}
}

// publish opens the next generation to every worker.
func (g *Group) publish() {
	g.gen.Add(1)
	for _, s := range g.shards[1:] {
		s.signal()
	}
}

// Close stops the worker goroutines and returns once they have exited, so
// nothing of the group's kernels stays reachable from a worker's stack. The
// group cannot be run afterwards.
func (g *Group) Close() {
	if !g.started {
		return
	}
	g.quit = true
	g.publish()
	g.exited.Wait()
	g.started = false
}

// minNext returns the earliest queued event time across all kernels.
// Mailboxes are always empty when this is called (drained at each barrier).
func (g *Group) minNext() Time {
	tmin := Never
	for _, k := range g.kernels {
		if t := k.NextEventTime(); t < tmin {
			tmin = t
		}
	}
	return tmin
}

// runWindow executes one lock-step window [open, limit) on every kernel in
// parallel, then drains all mailboxes at the barrier with every shard
// stopped.
func (g *Group) runWindow(open, limit Time) {
	g.windows++
	if open >= g.windowEnd(g.limit) {
		g.jumps++
	}
	g.limit = limit
	g.pending.Store(int32(len(g.shards) - 1))
	g.publish()
	g.shards[0].run(limit, g.epoch)
	g.coord.wait(g.spin, func() bool { return g.pending.Load() == 0 })
	for _, m := range g.mailboxes {
		g.drained += uint64(len(m.items))
		m.drain()
	}
}

// windowEnd computes the exclusive end of the window opening at tmin,
// saturating instead of overflowing.
func (g *Group) windowEnd(tmin Time) Time {
	if g.window == Never || tmin > Never-g.window {
		return Never
	}
	return tmin + g.window
}

// Run executes windows until every kernel's queue drains (all mailboxes are
// empty at each barrier by construction). It returns the latest kernel
// time.
func (g *Group) Run() Time {
	g.start()
	g.epoch = hostNanos()
	for {
		tmin := g.minNext()
		if tmin == Never {
			break
		}
		g.runWindow(tmin, g.windowEnd(tmin))
	}
	for _, k := range g.kernels {
		if k.now > g.now {
			g.now = k.now
		}
	}
	g.wallNs += hostNanos() - g.epoch
	return g.now
}

// RunUntil executes events with timestamps <= deadline on every kernel,
// then sets each kernel's clock (and the group clock) to the deadline —
// the same contract as the serial Kernel.RunUntil. Each window opens at
// the earliest queued event across the group, so idle stretches cost one
// barrier, not one barrier per window width.
func (g *Group) RunUntil(deadline Time) Time {
	g.start()
	g.epoch = hostNanos()
	for {
		tmin := g.minNext()
		if tmin > deadline {
			break
		}
		limit := g.windowEnd(tmin)
		if limit > deadline {
			// Final window: deadline+1 keeps events AT the deadline
			// inside (RunUntil is inclusive), and stays below every
			// undrained arrival, which lands at >= tmin+lookahead.
			limit = deadline + 1
		}
		g.runWindow(tmin, limit)
	}
	for _, k := range g.kernels {
		if k.now < deadline {
			k.now = deadline
		}
	}
	g.now = deadline
	g.wallNs += hostNanos() - g.epoch
	return g.now
}

// RunFor advances the whole group by d nanoseconds of simulated time.
func (g *Group) RunFor(d Duration) Time { return g.RunUntil(g.now + d) }
