package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// pingNode is a toy protocol node: on receiving a token it logs the arrival
// and bounces it back over its outgoing "link" after a fixed think time.
// The link is abstracted as a send function so the same node code runs on a
// serial kernel (plain Post) and across a partition boundary (Mailbox).
type pingNode struct {
	k     *Kernel
	name  string
	rng   *Rand
	delay Duration // link propagation delay
	think Duration
	send  func(at, pt Time, afn func(any), arg any)
	peer  *pingNode
	log   []string
	left  int
}

func (n *pingNode) recv(arg any) {
	tok := arg.(*int)
	n.log = append(n.log, fmt.Sprintf("%s t=%d tok=%d rng=%d", n.name, n.k.Now(), *tok, n.rng.Intn(1000)))
	if n.left == 0 {
		return
	}
	n.left--
	*tok++
	n.k.PostAfter(n.think, func() {
		n.send(n.k.Now()+n.delay, n.k.Now(), n.peer.recv, tok)
	})
}

// buildPair wires two ping nodes over a duplex link with the given delay,
// using the given conduits, and injects the first token toward B.
func buildPair(ka, kb *Kernel, delay Duration,
	sendAB, sendBA func(at, pt Time, afn func(any), arg any)) (*pingNode, *pingNode) {
	a := &pingNode{k: ka, name: "a", rng: NewRand(7), delay: delay, think: 300, send: sendAB, left: 20}
	b := &pingNode{k: kb, name: "b", rng: NewRand(9), delay: delay, think: 500, send: sendBA, left: 20}
	a.peer, b.peer = b, a
	tok := new(int)
	ka.Post(100, func() {
		a.send(ka.Now()+a.delay, ka.Now(), b.recv, tok)
	})
	return a, b
}

// TestGroupGoldenPingPong pins a two-partition Group run byte-identical to
// the serial kernel: same per-node event logs, same RNG draws, same final
// clock.
func TestGroupGoldenPingPong(t *testing.T) {
	const delay = 2000

	// Serial reference: both nodes on one kernel, links are plain posts
	// (pt/lane are implicit).
	ks := NewKernel()
	post := func(at, pt Time, afn func(any), arg any) { ks.Post(at, func() { afn(arg) }) }
	sa, sb := buildPair(ks, ks, delay, post, post)
	serialEnd := ks.Run()

	// Parallel: one kernel per node, a mailbox per direction.
	ka, kb := NewKernel(), NewKernel()
	g := NewGroup([]*Kernel{ka, kb})
	mab := g.Mailbox(ka, kb, delay)
	mba := g.Mailbox(kb, ka, delay)
	pa, pb := buildPair(ka, kb, delay, mab.Post, mba.Post)
	parEnd := g.Run()
	g.Close()

	if serialEnd != parEnd {
		t.Errorf("final time: serial %v parallel %v", serialEnd, parEnd)
	}
	if !reflect.DeepEqual(sa.log, pa.log) {
		t.Errorf("node a diverged:\nserial   %v\nparallel %v", sa.log, pa.log)
	}
	if !reflect.DeepEqual(sb.log, pb.log) {
		t.Errorf("node b diverged:\nserial   %v\nparallel %v", sb.log, pb.log)
	}
	if len(pa.log) == 0 || len(pb.log) == 0 {
		t.Fatal("no traffic simulated")
	}
	if g.Window() != delay {
		t.Errorf("window = %v, want link delay %v", g.Window(), delay)
	}
}

// TestGroupRunUntil pins the serial RunUntil contract on a Group: events at
// the deadline run, later events stay queued, and every kernel's clock ends
// exactly at the deadline.
func TestGroupRunUntil(t *testing.T) {
	ka, kb := NewKernel(), NewKernel()
	g := NewGroup([]*Kernel{ka, kb})
	g.Mailbox(ka, kb, 1000)
	defer g.Close()

	// One log per kernel: each is appended only from its own shard
	// goroutine, so the run is race-free by construction.
	var firedA, firedB []Time
	ka.Post(5000, func() { firedA = append(firedA, ka.Now()) })
	kb.Post(5000, func() { firedB = append(firedB, kb.Now()) })
	kb.Post(5001, func() { firedB = append(firedB, kb.Now()) })

	if got := g.RunUntil(5000); got != 5000 {
		t.Fatalf("RunUntil returned %v, want 5000", got)
	}
	if len(firedA)+len(firedB) != 2 {
		t.Fatalf("fired %d events by deadline, want 2 (got %v %v)", len(firedA)+len(firedB), firedA, firedB)
	}
	if ka.Now() != 5000 || kb.Now() != 5000 {
		t.Errorf("clocks at %v/%v, want 5000/5000", ka.Now(), kb.Now())
	}
	if g.RunUntil(6000); len(firedB) != 2 {
		t.Errorf("event beyond first deadline lost: fired %v", firedB)
	}
}

// TestGroupIdleJump pins that a long idle stretch costs one barrier, not
// one barrier per window: with a tiny lookahead and events 1 ms apart the
// run must still terminate quickly because each window opens at the next
// queued event.
func TestGroupIdleJump(t *testing.T) {
	ka, kb := NewKernel(), NewKernel()
	g := NewGroup([]*Kernel{ka, kb})
	g.Mailbox(ka, kb, 10) // 10 ns lookahead
	defer g.Close()

	n := 0
	for i := Time(1); i <= 50; i++ {
		ka.Post(i*Millisecond, func() { n++ })
	}
	g.Run()
	if n != 50 {
		t.Fatalf("dispatched %d, want 50", n)
	}
}

// TestGroupCloseWaitsForWorkers pins that Close returns only after the
// worker goroutines have exited. A worker still waiting for its next window
// keeps its kernel, and everything the kernel's events reference,
// reachable, so a collection right after Close would count a whole
// finished network as live.
func TestGroupCloseWaitsForWorkers(t *testing.T) {
	for i := 0; i < 50; i++ {
		ka, kb := NewKernel(), NewKernel()
		g := NewGroup([]*Kernel{ka, kb})
		g.Mailbox(ka, kb, 10)
		ka.Post(1, func() {})
		g.Run()
		g.Close()
		if frame := workerFrame(); frame != "" {
			t.Fatalf("round %d: a worker outlived Close:\n%s", i, frame)
		}
	}
}

// stacks is workerFrame's buffer, allocated once so that the snapshot
// follows Close without the delay of zeroing a megabyte.
var stacks = make([]byte, 1<<20)

// workerFrame returns the stack of a live (*Group).worker goroutine, or ""
// when there is none. A worker inside the WaitGroup.Done it defers has
// released Close and only returns, so it does not count.
func workerFrame() string {
	n := runtime.Stack(stacks, true)
	for _, st := range strings.Split(string(stacks[:n]), "\n\n") {
		if strings.Contains(st, "(*Group).worker") && !strings.Contains(st, "sync.(*WaitGroup).Done") {
			return st
		}
	}
	return ""
}

// ring is a cycle of ping nodes, node i passing tokens to node i+1, either
// all on one serial kernel or one partition per node.
type ring struct {
	nodes []*pingNode
	k     *Kernel // serial build
	g     *Group  // sharded build
}

// newRing builds an n-node ring and injects two tokens at t=100, at nodes 0
// and n/2, which circulate until they reach a node with no hops left (well
// before 1 ms). After a 50 ms idle stretch every node sends one more token
// to its peer.
func newRing(n int, sharded bool) *ring {
	const delay = 2000
	r := &ring{}
	ks := make([]*Kernel, n)
	if sharded {
		for i := range ks {
			ks[i] = NewKernel()
		}
		r.g = NewGroup(ks)
	} else {
		r.k = NewKernel()
		for i := range ks {
			ks[i] = r.k
		}
	}
	for i, k := range ks {
		r.nodes = append(r.nodes, &pingNode{k: k, name: fmt.Sprint(i), rng: NewRand(uint64(11 + i)),
			delay: delay, think: Duration(100 + 70*i), left: 30})
	}
	for i, nd := range r.nodes {
		j := (i + 1) % n
		nd.peer = r.nodes[j]
		if sharded {
			nd.send = r.g.Mailbox(ks[i], ks[j], delay).Post
		} else {
			k := r.k
			nd.send = func(at, pt Time, afn func(any), arg any) { k.Post(at, func() { afn(arg) }) }
		}
	}
	inject := func(nd *pingNode, at Time) {
		tok := new(int)
		nd.k.Post(at, func() { nd.send(nd.k.Now()+nd.delay, nd.k.Now(), nd.peer.recv, tok) })
	}
	inject(r.nodes[0], 100)
	inject(r.nodes[n/2], 100)
	for _, nd := range r.nodes {
		inject(nd, 50*Millisecond)
	}
	return r
}

func (r *ring) runUntil(t Time) Time {
	if r.g != nil {
		return r.g.RunUntil(t)
	}
	return r.k.RunUntil(t)
}

func (r *ring) run() Time {
	if r.g != nil {
		return r.g.Run()
	}
	return r.k.Run()
}

// sameLogs fails t unless the two rings' nodes logged identical histories.
func sameLogs(t *testing.T, serial, sharded *ring) {
	t.Helper()
	for i := range serial.nodes {
		s, p := serial.nodes[i].log, sharded.nodes[i].log
		if len(s) == 0 {
			t.Fatalf("node %d logged nothing", i)
		}
		if !reflect.DeepEqual(s, p) {
			t.Errorf("node %d diverged:\nserial  %v\nsharded %v", i, s, p)
		}
	}
}

// waitParked returns once every worker of g sleeps on its wake channel,
// having spun out its budget.
func waitParked(t *testing.T, g *Group) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, s := range g.shards[1:] {
		for !s.parked.Load() {
			if time.Now().After(deadline) {
				t.Fatal("workers never parked")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// TestGroupCloseLifecycle covers Close outside the steady state: before any
// run, twice, and while every worker is parked. Each run is byte-identical
// to serial, and no worker outlives Close.
func TestGroupCloseLifecycle(t *testing.T) {
	serial := newRing(4, false)
	serialEnd := serial.run()

	t.Run("before_run", func(t *testing.T) {
		r := newRing(4, true)
		r.g.Close()
		if frame := workerFrame(); frame != "" {
			t.Fatalf("a worker runs after Close on an unstarted group:\n%s", frame)
		}
	})
	t.Run("twice", func(t *testing.T) {
		r := newRing(4, true)
		if end := r.run(); end != serialEnd {
			t.Errorf("final time %v, serial %v", end, serialEnd)
		}
		r.g.Close()
		r.g.Close()
		if frame := workerFrame(); frame != "" {
			t.Fatalf("a worker outlived Close:\n%s", frame)
		}
		sameLogs(t, serial, r)
	})
	t.Run("parked", func(t *testing.T) {
		r := newRing(4, true)
		r.runUntil(30 * Millisecond) // the late tokens are still queued
		waitParked(t, r.g)
		r.g.Close()
		if frame := workerFrame(); frame != "" {
			t.Fatalf("a parked worker outlived Close:\n%s", frame)
		}
		for i, nd := range r.nodes {
			if n := len(nd.log); n == 0 || n == len(serial.nodes[i].log) {
				t.Errorf("node %d logged %d of %d entries by the first deadline", i, n, len(serial.nodes[i].log))
			}
			if !reflect.DeepEqual(nd.log, serial.nodes[i].log[:len(nd.log)]) {
				t.Errorf("node %d diverged from serial before Close", i)
			}
		}
	})
}

// TestGroupRunUntilWakesParkedWorkers pins that a run after a long host
// idle wakes the parked workers, and that splitting a run around the idle
// changes nothing: RunUntil to mid-stretch, wait until every worker has
// parked, RunUntil across the simulated idle stretch, then Run to the end.
func TestGroupRunUntilWakesParkedWorkers(t *testing.T) {
	serial, r := newRing(4, false), newRing(4, true)
	defer r.g.Close()
	for _, x := range []*ring{serial, r} {
		x.runUntil(30 * Millisecond)
	}
	waitParked(t, r.g)
	for _, x := range []*ring{serial, r} {
		if got := x.runUntil(60 * Millisecond); got != 60*Millisecond {
			t.Fatalf("RunUntil returned %v", got)
		}
	}
	waitParked(t, r.g)
	if s, p := serial.run(), r.run(); s != p {
		t.Errorf("final time: serial %v sharded %v", s, p)
	}
	sameLogs(t, serial, r)
}

// TestGroupOversubscribedParksAtOnce runs four partitions on one P: the
// barrier must not spin (a spinning waiter would hold the only P its
// shards need), and the run must complete byte-identical to serial.
func TestGroupOversubscribedParksAtOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial, r := newRing(4, false), newRing(4, true)
	defer r.g.Close()
	if s, p := serial.run(), r.run(); s != p {
		t.Errorf("final time: serial %v sharded %v", s, p)
	}
	if r.g.spin {
		t.Error("4 shards on GOMAXPROCS=1 chose the spinning barrier")
	}
	sameLogs(t, serial, r)
}

// TestGroupStats pins the executor's deterministic counters on the
// ping-pong scenario and bounds its host times: per shard, busy plus
// waiting time never exceeds the wall time spent in Run.
func TestGroupStats(t *testing.T) {
	const delay = 2000
	ka, kb := NewKernel(), NewKernel()
	g := NewGroup([]*Kernel{ka, kb})
	defer g.Close()
	mab, mba := g.Mailbox(ka, kb, delay), g.Mailbox(kb, ka, delay)
	buildPair(ka, kb, delay, mab.Post, mba.Post)
	kb.Post(40*Millisecond, func() {}) // one idle stretch past the ping-pong
	g.Run()

	st := g.Stats()
	// 41 token hops cross a mailbox; the jump is the 40 ms event.
	if st.Windows != 43 || st.IdleJumps != 1 || st.Drained != 41 {
		t.Errorf("windows %d, idle jumps %d, drained %d; want 43, 1, 41", st.Windows, st.IdleJumps, st.Drained)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("%d shard entries, want 2", len(st.Shards))
	}
	for i, s := range st.Shards {
		if s.BusyNs < 0 || s.WaitNs < 0 || s.BusyNs+s.WaitNs > st.WallNs {
			t.Errorf("shard %d: busy %d ns + wait %d ns against wall %d ns", i, s.BusyNs, s.WaitNs, st.WallNs)
		}
	}
}

// TestMailboxZeroLookaheadPanics: zero-delay links cannot cross partitions.
func TestMailboxZeroLookaheadPanics(t *testing.T) {
	g := NewGroup([]*Kernel{NewKernel(), NewKernel()})
	defer func() {
		if recover() == nil {
			t.Fatal("Mailbox(lookahead=0) did not panic")
		}
	}()
	g.Mailbox(g.Kernels()[0], g.Kernels()[1], 0)
}

// TestPostBoundaryPastPanics: a boundary event landing in the receiving
// kernel's past is a lookahead violation and must fail loudly.
func TestPostBoundaryPastPanics(t *testing.T) {
	k := NewKernel()
	k.Post(100, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("PostBoundary in the past did not panic")
		}
	}()
	k.PostBoundary(50, 0, 1, 0, func(any) {}, nil)
}

// TestBoundaryKeyOrdering pins the dispatch-key tie-break: at equal arrival
// times, earlier post time wins; at equal post times, the lower lane wins;
// within one lane, the sender's sequence order wins.
func TestBoundaryKeyOrdering(t *testing.T) {
	k := NewKernel()
	var order []string
	note := func(s string) func(any) { return func(any) { order = append(order, s) } }

	k.PostBoundary(1000, 500, 2, 0, note("pt500-lane2"), nil)
	k.PostBoundary(1000, 400, 3, 7, note("pt400-lane3"), nil)
	k.PostBoundary(1000, 500, 1, 9, note("pt500-lane1-seq9"), nil)
	k.PostBoundary(1000, 500, 1, 3, note("pt500-lane1-seq3"), nil)
	k.Run()

	want := []string{"pt400-lane3", "pt500-lane1-seq3", "pt500-lane1-seq9", "pt500-lane2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
}

// TestSerialKeyUnchanged pins that on a serial kernel the extended key
// collapses to (at, seq): interleaved At/Post calls for the same instant
// dispatch in scheduling order, exactly as before the pt/lane fields.
func TestSerialKeyUnchanged(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		if i%2 == 0 {
			k.Post(1000, func() { order = append(order, i) })
		} else {
			k.At(1000, func() { order = append(order, i) })
		}
	}
	k.Run()
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("same-instant dispatch order %v, want schedule order", order)
	}
}

// TestRandSplitStreams enforces the partition-independence contract from
// the Rand doc comment: streams derived via Split draw identical sequences
// regardless of how other streams' draws interleave with theirs — so a
// node's RNG sequence is the same whether its partition runs alone (serial
// projection) or concurrently with others.
func TestRandSplitStreams(t *testing.T) {
	draw := func(interleave bool) []uint64 {
		root := NewRand(42)
		a, b := root.Split(), root.Split()
		var seq []uint64
		for i := 0; i < 256; i++ {
			if interleave {
				for j := 0; j < i%5; j++ {
					b.Uint64() // another partition draining its own stream
				}
			}
			seq = append(seq, a.Uint64())
		}
		return seq
	}
	if !reflect.DeepEqual(draw(false), draw(true)) {
		t.Fatal("Split streams are not independent: interleaved draws perturbed the sequence")
	}

	// The footgun the rule prevents: one SHARED stream drawn by two nodes
	// is order-sensitive, hence not safe across partitions.
	shared := NewRand(42)
	solo := NewRand(42)
	shared.Uint64() // "other node" draw
	if shared.Uint64() == solo.Uint64() {
		t.Fatal("shared stream unexpectedly order-insensitive; doc rationale is stale")
	}
}
