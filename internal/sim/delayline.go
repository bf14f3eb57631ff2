package sim

import "fmt"

// DelayLine is a FIFO of deferred callbacks fn(v) for one conduit whose
// entries leave in the order they entered — a constant-delay fiber, a switch
// fabric, a partition mailbox. Each Push fixes the entry's full dispatch key
// (at, pt, lane, seq), the key a Post at that instant would have carried,
// and advances the kernel's sequence counter exactly as Post does. Only the
// head entry is in the kernel's queue, as one event the line owns; when it
// fires, the line pops it, arms the next entry under that entry's own key,
// and then runs the callback.
//
// Dispatch order is exactly that of one Post per entry: the entries' keys
// increase from head to tail, so the head is always the line's minimum, and
// the kernel dispatches the global minimum. A push whose key falls below the
// tail's (a link whose delay was lowered mid-run) would break that, so it is
// scheduled as its own keyed event instead.
//
// What the line saves is queue work. A 5 ms fiber at 155 Mb/s holds ~1,800
// cells in flight: one Post each puts them all in the overflow heap, while
// the line holds them in a chunked ring and keeps one event queued, which
// after the first cell is re-armed a cell time ahead, inside the wheel.
// The ring grows by fixed chunks that are never copied and are reused once
// drained, so steady-state Push and dispatch do not allocate.
type DelayLine[T any] struct {
	k  *Kernel
	fn func(T)
	ev Event // queued, keyed as the head entry, exactly while n > 0

	// Entries live in a circular list of chunks from (head, hi) up to,
	// not including, (tail, ti).
	head, tail *lineChunk[T]
	hi, ti     int
	n          int

	oneFn func(any) // bound fireOne, made on the first out-of-order push
}

// lineChunkLen is the number of entries per ring chunk. A line sweeps its
// whole ring once per cycle, so small chunks keep a short line's working set
// close to what it holds in flight; long lines grow in steps that are never
// copied.
const lineChunkLen = 16

type lineEntry[T any] struct {
	evKey
	v T
}

type lineChunk[T any] struct {
	e    [lineChunkLen]lineEntry[T]
	next *lineChunk[T]
}

// NewDelayLine returns an empty line on kernel k that runs fn(v) for each
// entry at the entry's time.
func NewDelayLine[T any](k *Kernel, fn func(T)) *DelayLine[T] {
	if fn == nil {
		panic("sim: delay line with nil callback")
	}
	l := &DelayLine[T]{k: k, fn: fn}
	l.ev.fn = l.fire
	return l
}

// Push schedules fn(v) at absolute time at. Scheduling in the past panics,
// as Post does.
func (l *DelayLine[T]) Push(at Time, v T) {
	k := l.k
	key := evKey{at: at, pt: k.now, lane: k.lane, seq: k.seq}
	k.seq++
	l.push(key, v)
}

// push appends an entry under an explicit key; a mailbox drain passes the
// sender's key, for which a time in the past means the partition lookahead
// was violated. A key below the tail's is scheduled on its own so the line
// stays ordered.
func (l *DelayLine[T]) push(key evKey, v T) {
	if key.at < l.k.now {
		panic(fmt.Sprintf("sim: delay line entry at %v before now %v", key.at, l.k.now))
	}
	if l.n > 0 && key.less(&l.tail.e[l.ti-1].evKey) {
		if l.oneFn == nil {
			l.oneFn = l.fireOne
		}
		l.k.PostBoundary(key.at, key.pt, key.lane, key.seq, l.oneFn, v)
		return
	}
	switch {
	case l.tail == nil:
		c := &lineChunk[T]{}
		c.next = c
		l.head, l.tail = c, c
	case l.ti == lineChunkLen:
		if l.tail.next == l.head {
			// Every other chunk is in use: splice in a new one.
			l.tail.next = &lineChunk[T]{next: l.head}
		}
		l.tail = l.tail.next
		l.ti = 0
	}
	e := &l.tail.e[l.ti]
	e.evKey, e.v = key, v
	l.ti++
	l.n++
	if l.n == 1 {
		l.arm()
	}
}

// arm queues the line's event under the head entry's key.
func (l *DelayLine[T]) arm() {
	l.ev.evKey = l.head.e[l.hi].evKey
	l.k.insert(&l.ev)
}

// fire is the line's event: pop the head, arm its successor, run the
// callback — in that order, so a callback that pushes onto this line finds
// it consistent.
func (l *DelayLine[T]) fire() {
	e := &l.head.e[l.hi]
	v := e.v
	var zero T
	e.v = zero // the chunk outlives the entry; do not pin its payload
	l.n--
	l.hi++
	switch {
	case l.n == 0:
		l.hi, l.ti = 0, 0 // head == tail: restart the chunk
	case l.hi == lineChunkLen:
		l.head = l.head.next
		l.hi = 0
	}
	if l.n > 0 {
		l.arm()
	}
	l.fn(v)
}

// fireOne runs an entry that was scheduled as its own event.
func (l *DelayLine[T]) fireOne(a any) {
	v, _ := a.(T) // a nil interface payload comes back as T's zero value
	l.fn(v)
}
