package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

// lineDelays mixes same-slot, in-horizon and beyond-horizon delays (the
// wheel covers 262,144 ns from time zero), so scripts exercise both tiers,
// equal-time ties, and delays that fall from one push to the next.
var lineDelays = []Duration{0, 1, 255, 256, 2726, 100_000, 262_143, 262_144, 300_000, 5_000_000}

// dispatchRec is one callback as it ran: when, and which.
type dispatchRec struct {
	At Time
	ID int
}

// runLineScript interprets script as a stream of (op, arg) byte pairs on k
// and returns the order callbacks ran in. With lines set, entries go through
// three local DelayLines and one line fed explicit foreign-lane keys the way
// a mailbox drain feeds it; without, every entry is its own event with the
// key the line would have given it (Post for local pushes, PostBoundary for
// keyed ones). The two must dispatch identically.
func runLineScript(k *Kernel, script []byte, lines bool) []dispatchRec {
	var out []dispatchRec
	nextID := 0
	var local [3]*DelayLine[int]
	var keyed *DelayLine[int]
	var handles []*Event
	foreignSeq := [4]uint64{} // per foreign lane 1..3; 0 unused

	var push func(j int, d Duration)
	var run func(id int, j int)
	run = func(id int, j int) {
		out = append(out, dispatchRec{k.Now(), id})
		if id%5 == 0 && nextID < 4*len(script) {
			// Entries scheduled from inside callbacks, onto the same
			// local line (keyed entries chain onto line 0).
			push(max(j, 0), lineDelays[id%len(lineDelays)])
		}
	}
	push = func(j int, d Duration) {
		id := nextID
		nextID++
		if lines {
			local[j].Push(k.Now()+d, id)
			return
		}
		k.Post(k.Now()+d, func() { run(id, j) })
	}
	for j := range local {
		j := j
		local[j] = NewDelayLine(k, func(id int) { run(id, j) })
	}
	keyed = NewDelayLine(k, func(id int) { run(id, -1) })

	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i], script[i+1]
		d := lineDelays[int(arg)%len(lineDelays)]
		switch op % 6 {
		case 0, 1: // push onto a local line (the common case)
			push(int(arg>>4)%len(local), d)
		case 2: // a plain event in between
			id := nextID
			nextID++
			k.Post(k.Now()+d, func() { out = append(out, dispatchRec{k.Now(), id}) })
		case 3: // a cancellable timer
			id := nextID
			nextID++
			handles = append(handles, k.At(k.Now()+d, func() { out = append(out, dispatchRec{k.Now(), id}) }))
		case 4: // cancel or reschedule a timer
			if len(handles) == 0 {
				continue
			}
			h := handles[int(arg>>4)%len(handles)]
			if arg&1 == 0 {
				k.Cancel(h)
			} else {
				k.Reschedule(h, k.Now()+d)
			}
		case 5: // a foreign-lane entry, keyed as a mailbox drain keys it
			lane := int32(1 + int(arg>>4)%3)
			pt := k.Now() - Time(arg>>6)*100
			if pt < 0 {
				pt = 0
			}
			seq := foreignSeq[lane]
			foreignSeq[lane]++
			id := nextID
			nextID++
			if lines {
				keyed.push(evKey{at: k.Now() + d, pt: pt, lane: lane, seq: seq}, id)
			} else {
				k.PostBoundary(k.Now()+d, pt, lane, seq, func(any) { run(id, -1) }, nil)
			}
		}
		if op&0x80 != 0 {
			for n := int(op>>4) & 7; n >= 0 && k.Step(); n-- {
			}
		}
	}
	k.Run()
	if k.Pending() != 0 {
		panic("events left after Run")
	}
	return out
}

// checkLineScript runs script through lines and through plain events, on
// the wheel kernel and the heap-only kernel, and reports any difference.
func checkLineScript(t *testing.T, script []byte) {
	t.Helper()
	want := runLineScript(NewHeapKernel(), script, false)
	for _, c := range []struct {
		name  string
		k     *Kernel
		lines bool
	}{
		{"wheel/events", NewKernel(), false},
		{"wheel/lines", NewKernel(), true},
		{"heap/lines", NewHeapKernel(), true},
	} {
		if got := runLineScript(c.k, script, c.lines); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: dispatch order differs from one event per entry\n got %v\nwant %v", c.name, got, want)
		}
	}
}

// Property: a DelayLine dispatches exactly as one event per entry with the
// same key would, whatever mix of monotone and out-of-order pushes, plain
// events, timers, cancels, reschedules and foreign-lane keys surrounds it.
func TestPropertyDelayLineOrderEquivalence(t *testing.T) {
	f := func(script []byte) bool {
		checkLineScript(t, script)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDelayLineOrder is the same equivalence under the fuzzer; the seed
// corpus lives in testdata/fuzz/FuzzDelayLineOrder.
func FuzzDelayLineOrder(f *testing.F) {
	f.Add([]byte{0, 9, 0, 9, 0, 2, 0x80, 0})                // delay lowered: out-of-order push
	f.Add([]byte{5, 0x14, 5, 0x24, 0, 4, 0xf0, 0, 5, 0x34}) // foreign lanes among locals
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			return
		}
		checkLineScript(t, script)
	})
}

// A full line keeps one event queued, and only an idle-to-busy push lands
// beyond the wheel horizon: later heads are re-armed a cell time ahead.
func TestDelayLineQueuesOnlyItsHead(t *testing.T) {
	k := NewKernel()
	got := 0
	l := NewDelayLine(k, func(int) { got++ })
	const cells, cellTime, delay = 1500, 2726, 5 * Millisecond
	for i := 0; i < cells; i++ {
		k.RunUntil(Time(i) * cellTime)
		l.Push(k.Now()+delay, i)
		if k.Pending() != 1 {
			t.Fatalf("after %d pushes Pending() = %d, want 1", i+1, k.Pending())
		}
	}
	if got != 0 {
		t.Fatalf("%d entries ran before their time", got)
	}
	k.Run()
	if got != cells {
		t.Fatalf("delivered %d, want %d", got, cells)
	}
	ts := k.Tier()
	if ts.HeapInserts != 1 || ts.WheelInserts != cells-1 || ts.HeapHW != 1 || ts.PendingHW != 1 {
		t.Fatalf("tier stats %+v, want 1 heap insert and %d wheel inserts", ts, cells-1)
	}
}

// A push below the tail's key (the delay was lowered while entries were in
// flight) runs at its own time, ahead of the older entries it overtakes.
func TestDelayLineOutOfOrderPush(t *testing.T) {
	k := NewKernel()
	var order []int
	l := NewDelayLine(k, func(id int) { order = append(order, id) })
	l.Push(1000, 0)
	l.Push(2000, 1)
	l.Push(1500, 2) // overtakes 1
	l.Push(2000, 3) // equal time, later key: after 1
	k.Run()
	if !reflect.DeepEqual(order, []int{0, 2, 1, 3}) {
		t.Fatalf("order %v, want [0 2 1 3]", order)
	}
}

// A callback that pushes onto its own line sees the line consistent: the
// head was popped and its successor armed before the callback ran.
func TestDelayLinePushFromCallback(t *testing.T) {
	k := NewKernel()
	var order []Time
	var l *DelayLine[int]
	l = NewDelayLine(k, func(n int) {
		order = append(order, k.Now())
		if n > 0 {
			l.Push(k.Now()+10, n-1)
		}
	})
	l.Push(5, 2)
	l.Push(7, 0)
	k.Run()
	if !reflect.DeepEqual(order, []Time{5, 7, 15, 25}) {
		t.Fatalf("dispatch times %v, want [5 7 15 25]", order)
	}
}

// The ring grows past one chunk and is reused once drained, without
// copying, and keeps FIFO order across chunk boundaries.
func TestDelayLineRingWrapsAcrossChunks(t *testing.T) {
	k := NewKernel()
	next := 0
	l := NewDelayLine(k, func(i int) {
		if i != next {
			t.Fatalf("got entry %d, want %d", i, next)
		}
		next++
	})
	id := 0
	for round := 0; round < 5; round++ {
		for i := 0; i < 3*lineChunkLen+7; i++ {
			l.Push(Time(id), id)
			id++
		}
		// Drain part way, so the next round writes behind the reader.
		for i := 0; i < lineChunkLen+3; i++ {
			k.Step()
		}
	}
	k.Run()
	if next != id {
		t.Fatalf("delivered %d of %d", next, id)
	}
}

// Steady-state Push and dispatch through a line must not allocate: the ring
// chunks and the line's event are reused.
func TestDelayLineZeroAlloc(t *testing.T) {
	k := NewKernel()
	l := NewDelayLine(k, func(*Event) {})
	e := &Event{}
	// Keep several chunks' worth in flight: each measured push is matched
	// by one dispatch, so the ring turns over without growing.
	for i := 0; i < 4*lineChunkLen; i++ {
		l.Push(Time(i), e)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		l.Push(k.Now()+5*Millisecond, e)
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("line push+dispatch allocates %.3f allocs/op, want 0", allocs)
	}
}

func TestDelayLinePastPushPanics(t *testing.T) {
	k := NewKernel()
	k.RunUntil(100)
	l := NewDelayLine(k, func(int) {})
	defer func() {
		if recover() == nil {
			t.Fatal("push into the past did not panic")
		}
	}()
	l.Push(50, 0)
}
