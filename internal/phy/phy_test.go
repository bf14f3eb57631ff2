package phy

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/atm"
	"repro/internal/bufpool"
	"repro/internal/sim"
)

func TestCellLinkDeliversAfterDelay(t *testing.T) {
	k := sim.NewKernel()
	var at sim.Time = -1
	l := NewCellLink(k, 5000, 1, atm.SinkFunc(func(c *atm.Cell) { at = k.Now() }))
	l.Send(&atm.Cell{})
	k.Run()
	if at != 5000 {
		t.Fatalf("delivered at %v, want 5000", int64(at))
	}
	s := l.Stats()
	if s.Sent != 1 || s.Delivered != 1 || s.Lost != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCellLinkPreservesOrder(t *testing.T) {
	k := sim.NewKernel()
	var got []uint16
	l := NewCellLink(k, 100, 1, atm.SinkFunc(func(c *atm.Cell) { got = append(got, c.Header.VCI) }))
	for i := 0; i < 10; i++ {
		c := &atm.Cell{}
		c.Header.VCI = uint16(i)
		l.Send(c)
	}
	k.Run()
	for i, v := range got {
		if int(v) != i {
			t.Fatalf("order %v", got)
		}
	}
}

func TestCellLinkLossRate(t *testing.T) {
	k := sim.NewKernel()
	delivered := 0
	l := NewCellLink(k, 0, 42, atm.SinkFunc(func(c *atm.Cell) { delivered++ }))
	l.LossProb = 0.1
	n := 100000
	for i := 0; i < n; i++ {
		l.Send(&atm.Cell{})
	}
	k.Run()
	rate := 1 - float64(delivered)/float64(n)
	if rate < 0.09 || rate > 0.11 {
		t.Fatalf("loss rate %v, want ~0.1", rate)
	}
	if l.Stats().Lost != uint64(n-delivered) {
		t.Fatal("loss accounting mismatch")
	}
}

func TestCellLinkCorruptionFlipsOneBit(t *testing.T) {
	k := sim.NewKernel()
	var got *atm.Cell
	l := NewCellLink(k, 0, 7, atm.SinkFunc(func(c *atm.Cell) { got = c }))
	l.CorruptProb = 1.0
	c := &atm.Cell{}
	orig := c.Payload
	l.Send(c)
	k.Run()
	diff := 0
	for i := range got.Payload {
		x := got.Payload[i] ^ orig[i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bits flipped, want 1", diff)
	}
}

func TestFrameLinkCopiesBuffer(t *testing.T) {
	k := sim.NewKernel()
	var got []byte
	l := NewFrameLink(k, 10, 1, func(f []byte) { got = f })
	buf := []byte{1, 2, 3}
	l.Send(buf)
	buf[0] = 99 // mutate after send
	k.Run()
	if got[0] != 1 {
		t.Fatal("frame link aliased caller's buffer")
	}
}

func TestFrameLinkBitError(t *testing.T) {
	k := sim.NewKernel()
	var got []byte
	l := NewFrameLink(k, 0, 3, func(f []byte) { got = f })
	l.BitErrProb = 1.0
	orig := make([]byte, 64)
	l.Send(orig)
	k.Run()
	diff := 0
	for i := range got {
		x := got[i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bits flipped, want 1", diff)
	}
}

func TestPropDelay(t *testing.T) {
	// 1000 km of fiber = 5 ms.
	if got := PropDelay(1000); got != 5*sim.Millisecond {
		t.Fatalf("PropDelay(1000) = %v", got)
	}
	if got := PropDelay(0.2); got != 1000 {
		t.Fatalf("PropDelay(0.2km) = %v ns, want 1000", int64(got))
	}
}

func TestNilSinkPanics(t *testing.T) {
	k := sim.NewKernel()
	for name, fn := range map[string]func(){
		"cell":  func() { NewCellLink(k, 0, 1, nil) },
		"frame": func() { NewFrameLink(k, 0, 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: nil sink did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// The cell delivery path — CellLink.Send through the link's delay line and
// the kernel queue to the sink — must not allocate at steady state.
func TestCellLinkSendZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	delivered := 0
	l := NewCellLink(k, 5000, 1, atm.SinkFunc(func(c *atm.Cell) { delivered++ }))
	c := &atm.Cell{}
	// Warm the delay line's ring.
	l.Send(c)
	k.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		l.Send(c)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("cell delivery allocates %v per op, want 0", allocs)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// sigRecorder captures carrier transitions with their observation times.
type sigRecorder struct {
	k      *sim.Kernel
	ups    []bool
	atTime []sim.Time
}

func (s *sigRecorder) SignalChange(up bool) {
	s.ups = append(s.ups, up)
	s.atTime = append(s.atTime, s.k.Now())
}

func TestCellLinkFailRestore(t *testing.T) {
	k := sim.NewKernel()
	delivered := 0
	l := NewCellLink(k, 5000, 1, atm.SinkFunc(func(c *atm.Cell) { delivered++ }))
	rec := &sigRecorder{k: k}
	l.SetSignalSink(rec)

	l.Send(&atm.Cell{}) // in flight before the cut: still arrives
	l.Fail()
	if !l.Down() {
		t.Fatal("Down() = false after Fail")
	}
	l.Fail() // idempotent
	for i := 0; i < 3; i++ {
		l.Send(&atm.Cell{}) // into the dead fiber
	}
	k.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d cells, want only the pre-cut one", delivered)
	}
	s := l.Stats()
	if s.DroppedDown != 3 || s.Lost != 3 {
		t.Fatalf("stats %+v, want 3 dropped-down", s)
	}

	l.Restore()
	if l.Down() {
		t.Fatal("Down() = true after Restore")
	}
	l.Send(&atm.Cell{})
	k.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d cells after repair, want 2", delivered)
	}
	// Each carrier transition is observed one propagation delay later.
	if len(rec.ups) != 2 || rec.ups[0] || !rec.ups[1] {
		t.Fatalf("signal transitions %v, want [down up]", rec.ups)
	}
	for i, at := range rec.atTime {
		if (at-5000)%5000 != 0 && at < 5000 {
			t.Fatalf("transition %d at %v, want >= one delay", i, at)
		}
	}
}

// TestCellLinkSignalFallsBackToSink: with no explicit signal sink, carrier
// transitions reach the cell sink when it implements SignalConsumer.
type sinkWithSignal struct {
	sigRecorder
	cells int
}

func (s *sinkWithSignal) DeliverCell(*atm.Cell) { s.cells++ }

func TestCellLinkSignalFallsBackToSink(t *testing.T) {
	k := sim.NewKernel()
	sink := &sinkWithSignal{sigRecorder: sigRecorder{k: k}}
	l := NewCellLink(k, 0, 1, sink)
	l.Fail()
	l.Restore()
	k.Run()
	if len(sink.ups) != 2 || sink.ups[0] || !sink.ups[1] {
		t.Fatalf("sink saw transitions %v, want [down up]", sink.ups)
	}
}

func TestFrameLinkFailRestore(t *testing.T) {
	k := sim.NewKernel()
	frames := 0
	l := NewFrameLink(k, 2500, 1, func(frame []byte) { frames++ })
	rec := &sigRecorder{k: k}
	l.SetSignalSink(rec)

	buf := make([]byte, 64)
	l.Send(buf)
	l.Fail()
	l.Send(buf)
	l.Send(buf)
	k.Run()
	if frames != 1 {
		t.Fatalf("delivered %d frames, want only the pre-cut one", frames)
	}
	if s := l.Stats(); s.DroppedDown != 2 {
		t.Fatalf("stats %+v, want 2 dropped-down", s)
	}
	l.Restore()
	l.Send(buf)
	k.Run()
	if frames != 2 {
		t.Fatalf("delivered %d frames after repair, want 2", frames)
	}
	if len(rec.ups) != 2 || rec.ups[0] || !rec.ups[1] {
		t.Fatalf("signal transitions %v, want [down up]", rec.ups)
	}
}

// Re-attaching the delivery end while cells are in flight redirects them:
// the sink is read when each cell arrives, not when it was sent.
func TestCellLinkAttachSinkRedirectsCellsInFlight(t *testing.T) {
	k := sim.NewKernel()
	var old, repl []uint16
	l := NewCellLink(k, 5000, 1, atm.SinkFunc(func(c *atm.Cell) { old = append(old, c.Header.VCI) }))
	for i := 0; i < 4; i++ {
		c := &atm.Cell{}
		c.Header.VCI = uint16(i)
		k.At(sim.Time(i)*1000, func() { l.Send(c) })
	}
	k.RunUntil(5500) // cell 0 has arrived; 1..3 are on the fiber
	l.AttachSink(atm.SinkFunc(func(c *atm.Cell) { repl = append(repl, c.Header.VCI) }))
	k.Run()
	if len(old) != 1 || old[0] != 0 {
		t.Fatalf("old sink got %v, want [0]", old)
	}
	if len(repl) != 3 || repl[0] != 1 || repl[1] != 2 || repl[2] != 3 {
		t.Fatalf("new sink got %v, want [1 2 3]", repl)
	}
}

// Cells on the fiber when it is cut still arrive, in order, and loss of
// signal reaches the receiver after the last of them.
func TestCellLinkFailSignalLandsAfterCellsInFlight(t *testing.T) {
	k := sim.NewKernel()
	var log []string
	l := NewCellLink(k, 5000, 1, atm.SinkFunc(func(c *atm.Cell) {
		log = append(log, fmt.Sprintf("cell%d@%d", c.Header.VCI, k.Now()))
	}))
	l.SetSignalSink(signalFunc(func(up bool) { log = append(log, fmt.Sprintf("up=%v@%d", up, k.Now())) }))
	for i := 0; i < 3; i++ {
		c := &atm.Cell{}
		c.Header.VCI = uint16(i)
		k.At(sim.Time(i)*1000, func() { l.Send(c) })
	}
	// Cut at the instant the last cell leaves, after it: the signal and the
	// cell share an arrival time, and the cell was sent first.
	k.At(2000, l.Fail)
	k.Run()
	want := []string{"cell0@5000", "cell1@6000", "cell2@7000", "up=false@7000"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("arrivals %v, want %v", log, want)
	}
}

type signalFunc func(up bool)

func (f signalFunc) SignalChange(up bool) { f(up) }

// Lowering Delay while cells are in flight lets later cells overtake
// earlier ones; each still arrives at send time + the delay it was sent
// under, and cells landing at the same instant keep send order.
func TestCellLinkDelayLoweredMidRun(t *testing.T) {
	k := sim.NewKernel()
	var log []string
	l := NewCellLink(k, 5000, 1, atm.SinkFunc(func(c *atm.Cell) {
		log = append(log, fmt.Sprintf("%d@%d", c.Header.VCI, k.Now()))
	}))
	send := func(at sim.Time, vci uint16, delay sim.Duration) {
		k.At(at, func() {
			l.Delay = delay
			c := &atm.Cell{}
			c.Header.VCI = vci
			l.Send(c)
		})
	}
	send(0, 1, 5000)    // arrives 5000
	send(100, 2, 5000)  // arrives 5100
	send(4000, 3, 1000) // arrives 5000: ties cell 1, sent later
	send(4000, 4, 500)  // arrives 4500: overtakes 1, 2 and 3
	send(4200, 5, 900)  // arrives 5100: ties cell 2, sent later
	send(4300, 6, 5000) // arrives 9300: back to the long delay
	k.Run()
	want := []string{"4@4500", "1@5000", "3@5000", "2@5100", "5@5100", "6@9300"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("arrivals %v, want %v", log, want)
	}
}

// A link whose ends sit in different partitions of a sim.Group delivers
// through a mailbox. Everything the receiving partition sees — cells with
// their corrupted payloads, carrier transitions, local events interleaved
// with them — must be byte-identical to the serial run.
func TestCellLinkBoundaryMatchesSerial(t *testing.T) {
	run := func(sharded bool) string {
		src, dst := sim.NewKernel(), sim.NewKernel()
		var g *sim.Group
		if sharded {
			g = sim.NewGroup([]*sim.Kernel{src, dst})
		} else {
			dst = src
		}
		var b strings.Builder
		l := NewCellLink(src, 10_000, 9, atm.SinkFunc(func(c *atm.Cell) {
			fmt.Fprintf(&b, "%d cell %d %x\n", dst.Now(), c.Header.VCI, c.Payload)
		}))
		l.LossProb, l.CorruptProb = 0.05, 0.2
		l.SetSignalSink(signalFunc(func(up bool) { fmt.Fprintf(&b, "%d signal %v\n", dst.Now(), up) }))
		if sharded {
			l.SetBoundary(g.Mailbox(src, dst, l.Delay), nil, "l", atm.NewPool(0))
		}
		for i := 0; i < 400; i++ {
			c := &atm.Cell{}
			c.Header.VCI = uint16(i)
			c.Payload[0] = byte(i)
			src.At(sim.Time(i)*700, func() { l.Send(c) })
		}
		src.At(100_000, l.Fail)
		src.At(150_000, l.Restore)
		// A receiver-side clock whose ticks share arrival instants.
		var tick func()
		tick = func() {
			fmt.Fprintf(&b, "%d tick\n", dst.Now())
			if dst.Now() < 300_000 {
				dst.After(1000, tick)
			}
		}
		dst.At(0, tick)
		if sharded {
			g.Run()
			g.Close()
		} else {
			src.Run()
		}
		return b.String()
	}
	serial, sharded := run(false), run(true)
	if serial != sharded {
		t.Fatalf("sharded receive side differs from serial:\nserial:\n%.600s\nsharded:\n%.600s", serial, sharded)
	}
	if !strings.Contains(serial, "signal false") || !strings.Contains(serial, " cell 399 ") {
		t.Fatalf("run did not exercise cells and signals:\n%.600s", serial)
	}
}

// With a buffer pool installed, every frame copy on the fiber comes back to
// the pool once its sink returns — also with many frames in flight at once
// and when the fiber is cut and restored under them.
func TestFrameLinkBufPoolRecyclesEveryCopy(t *testing.T) {
	k := sim.NewKernel()
	frames := 0
	l := NewFrameLink(k, 500_000, 1, func(f []byte) {
		if f[0] != byte(frames) {
			t.Fatalf("frame %d arrived carrying %d", frames, f[0])
		}
		frames++
	})
	pool := bufpool.New()
	l.SetBufPool(pool)
	buf := make([]byte, 810)
	sent := 0
	for i := 0; i < 40; i++ {
		k.At(sim.Time(i)*125_000, func() {
			buf[0] = byte(sent)
			l.Send(buf)
			if !l.Down() {
				sent++
			}
		})
	}
	k.At(1_000_000, l.Fail)
	k.At(1_500_000, l.Restore)
	k.Run()
	hits, misses, puts := pool.Stats()
	if frames != sent || puts != uint64(sent) || hits+misses != uint64(sent) {
		t.Fatalf("sent %d, delivered %d; pool gets %d (fresh %d), puts %d", sent, frames, hits+misses, misses, puts)
	}
	// 500 µs of fiber at one frame per 125 µs holds at most 5 frames.
	if misses > 5 {
		t.Fatalf("%d fresh buffers for at most 5 frames in flight", misses)
	}
}

func TestFrameLinkPoolRecyclesCopies(t *testing.T) {
	k := sim.NewKernel()
	frames := 0
	l := NewFrameLink(k, 10, 1, func(f []byte) { frames++ })
	pool := bufpool.New()
	l.SetBufPool(pool)
	frame := make([]byte, 2430)
	// Prime the pool with the first flight, then the steady state must hit
	// the free list for every copy.
	l.Send(frame)
	k.Run()
	for i := 0; i < 50; i++ {
		l.Send(frame)
		k.Run()
	}
	if frames != 51 {
		t.Fatalf("%d frames delivered, want 51", frames)
	}
	hits, misses, puts := pool.Stats()
	if misses != 1 || hits != 50 || puts != 51 {
		t.Fatalf("pool hits=%d misses=%d puts=%d, want 50/1/51", hits, misses, puts)
	}
}
