package phy

import (
	"repro/internal/atm"
	"repro/internal/sim"
)

// CellDeferrer schedules "deliver this cell to this sink later" callbacks
// without allocating. The per-cell closure idiom
//
//	k.After(delay, func() { sink(c) })
//
// costs a closure plus an Event per cell; the deferrer instead parks the
// (cell, sink) pair in a pooled record whose bound fire method was created
// once, and schedules it through the kernel's Post free list — steady-state
// deferral is 0 allocs/op.
//
// Each deferred cell is its own kernel event, so a long link holds one
// queued event per cell in flight. The per-cell paths therefore defer
// through a sim.DelayLine instead (CellLink.Send, FrameLink, the sonetlink
// cell-recovery spread, the switch fabric). What still uses the deferrer is
// the burst datapath: CellLink.DeliverBurst and BurstSpreader, which post a
// whole vector's cells at once at arithmetic offsets. That code is slated
// for deletion with the rest of the burst path, so it keeps the deferrer
// rather than move to lines; its events carry the same keys either way.
type CellDeferrer struct {
	k     *sim.Kernel
	free  *cellDefer
	bfree *burstDefer
}

type cellDefer struct {
	d    *CellDeferrer
	c    *atm.Cell
	sink func(*atm.Cell)
	fn   func() // bound fire method, created once per record
	next *cellDefer
}

// NewCellDeferrer returns a deferrer scheduling on kernel k.
func NewCellDeferrer(k *sim.Kernel) *CellDeferrer {
	return &CellDeferrer{k: k}
}

// Post schedules sink(c) to run d nanoseconds from now.
func (cd *CellDeferrer) Post(d sim.Duration, sink func(*atm.Cell), c *atm.Cell) {
	r := cd.free
	if r == nil {
		r = &cellDefer{d: cd}
		r.fn = r.fire
	} else {
		cd.free = r.next
		r.next = nil
	}
	r.c, r.sink = c, sink
	cd.k.PostAfter(d, r.fn)
}

// fire recycles the record before invoking the sink, so a sink that defers
// further cells can reuse it immediately.
func (r *cellDefer) fire() {
	c, sink := r.c, r.sink
	r.c, r.sink = nil, nil
	r.next = r.d.free
	r.d.free = r
	sink(c)
}

// PostBurst degrades a cell burst to per-cell deferred delivery: cell i is
// scheduled at d + i*stride. All events are scheduled up front, in wire
// order, so the kernel's (time, seq) dispatch order is identical to a serial
// producer posting the same cells one by one — the property the burst-mode
// golden tests pin. Nil slots (cells removed in flight) are skipped without
// disturbing the later cells' offsets. The burst record is recycled.
func (cd *CellDeferrer) PostBurst(d, stride sim.Duration, sink func(*atm.Cell), b *atm.CellBurst) {
	for i, c := range b.Cells {
		if c == nil {
			continue
		}
		cd.Post(d+sim.Duration(i)*stride, sink, c)
	}
	atm.PutBurst(b)
}

// burstDefer parks a whole in-flight burst, the vector counterpart of
// cellDefer: one kernel event carries the entire run.
type burstDefer struct {
	d    *CellDeferrer
	b    *atm.CellBurst
	sink func(*atm.CellBurst)
	fn   func()
	next *burstDefer
}

// PostBurstEvent schedules sink(b) to run d nanoseconds from now as a single
// kernel event — the batched transit: one event for the whole vector instead
// of one per cell.
func (cd *CellDeferrer) PostBurstEvent(d sim.Duration, sink func(*atm.CellBurst), b *atm.CellBurst) {
	r := cd.bfree
	if r == nil {
		r = &burstDefer{d: cd}
		r.fn = r.fire
	} else {
		cd.bfree = r.next
		r.next = nil
	}
	r.b, r.sink = b, sink
	cd.k.PostAfter(d, r.fn)
}

func (r *burstDefer) fire() {
	b, sink := r.b, r.sink
	r.b, r.sink = nil, nil
	r.next = r.d.bfree
	r.d.bfree = r
	sink(b)
}

// BurstSpreader adapts a per-cell consumer to the burst contract: bursts
// delivered to it are re-spread into individual DeliverCell events at the
// burst's arithmetic per-cell times, scheduled up front in wire order.
// This is the timing-preserving degradation for consumers whose behavior
// depends on when each cell arrives (a receive FIFO, an occupancy-coupled
// queue) — atm.DeliverBurstTo's immediate loop is only safe for consumers
// that are timing-independent.
type BurstSpreader struct {
	def       *CellDeferrer
	k         *sim.Kernel
	sink      atm.CellConsumer
	deliverFn func(*atm.Cell)
}

// NewBurstSpreader returns a spreader feeding sink on kernel k.
func NewBurstSpreader(k *sim.Kernel, sink atm.CellConsumer) *BurstSpreader {
	if sink == nil {
		panic("phy: nil spreader sink")
	}
	s := &BurstSpreader{def: NewCellDeferrer(k), k: k, sink: sink}
	s.deliverFn = s.deliver
	return s
}

func (s *BurstSpreader) deliver(c *atm.Cell) { s.sink.DeliverCell(c) }

// DeliverCell implements atm.CellConsumer: single cells pass straight
// through.
func (s *BurstSpreader) DeliverCell(c *atm.Cell) { s.sink.DeliverCell(c) }

// DeliverBurst implements atm.BurstConsumer by spreading the vector.
// b.Base must not be in the past.
func (s *BurstSpreader) DeliverBurst(b *atm.CellBurst) {
	d := sim.Duration(b.Base - int64(s.k.Now()))
	s.def.PostBurst(d, sim.Duration(b.Stride), s.deliverFn, b)
}
