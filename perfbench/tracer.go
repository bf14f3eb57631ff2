package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/atm"
	"repro/internal/sim"
)

// door names one layer boundary the traced run times from outside the
// simulator: the benchmark wraps each call across it in a span.
type door uint8

const (
	doorSlice  door = iota // one RunUntil kernel slice
	doorSend               // Endpoint.Send
	doorPhy                // phy.CellLink.Send, entered from a producer's output
	doorSwitch             // switch port DeliverCell, via a CellLink sink shim
	doorNIC                // nic.Interface.DeliverCell, via a CellLink sink shim
	doorSonet              // sonetlink half DeliverCell, from the interface's output
	doorRecv               // OnReceive / IP handler delivery
	nDoors
)

var doorNames = [nDoors]string{
	doorSlice:  "sim.slice",
	doorSend:   "core.send",
	doorPhy:    "phy.send",
	doorSwitch: "netsim.deliver",
	doorNIC:    "nic.deliver",
	doorSonet:  "sonetlink.send",
	doorRecv:   "app.receive",
}

func doorByName(name string) (door, bool) {
	for d, n := range doorNames {
		if n == name {
			return door(d), true
		}
	}
	return 0, false
}

// span is one recorded door crossing. SDU identifies the SDU the crossing
// served: stream index and sequence for Send and receive doors; for cell
// doors the cell's VC and the number of frames that door has already seen
// on that VC.
type span struct {
	ID, Parent int64
	Door       door
	SDU        uint64
	Start, End int64 // ns since the trace epoch
}

type openSpan struct {
	id    int64
	d     door
	start int64
	child int64 // ns covered by child spans
}

// doorStats aggregates every crossing of one door.
type doorStats struct {
	Count   int64
	TotalNs int64
	SelfNs  int64 // total minus the time covered by child spans
}

// tracer records spans for one goroutine: the slicer's (the goroutine
// that runs the slices) or one partition kernel's (doors). Spans are kept
// in memory up to keepCap and written out when the run ends; the
// aggregates cover every span.
type tracer struct {
	epoch   time.Time
	idBase  int64
	nextID  int64
	stack   []openSpan
	root    *atomic.Int64 // id of the slice in progress: parent of top-level door spans
	stats   [nDoors]doorStats
	topNs   int64 // time covered by top-level spans
	kept    []span
	keepCap int
	frames  map[atm.VC]uint64
}

func newTracer(epoch time.Time, index int, root *atomic.Int64, keepCap int) *tracer {
	return &tracer{epoch: epoch, idBase: int64(index) << 40, root: root,
		keepCap: keepCap, kept: make([]span, 0, keepCap), frames: make(map[atm.VC]uint64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(d door) {
	t.nextID++
	t.stack = append(t.stack, openSpan{id: t.idBase | t.nextID, d: d, start: t.now()})
}

func (t *tracer) end(sdu uint64) {
	end := t.now()
	top := len(t.stack) - 1
	o := t.stack[top]
	t.stack = t.stack[:top]
	dur := end - o.start
	st := &t.stats[o.d]
	st.Count++
	st.TotalNs += dur
	st.SelfNs += dur - o.child
	var parent int64
	if top > 0 {
		t.stack[top-1].child += dur
		parent = t.stack[top-1].id
	} else {
		t.topNs += dur
		if t.root != nil && o.d != doorSlice {
			parent = t.root.Load()
		}
	}
	if len(t.kept) < t.keepCap {
		t.kept = append(t.kept, span{ID: o.id, Parent: parent, Door: o.d, SDU: sdu, Start: o.start, End: end})
	}
}

// cellID names the SDU a cell belongs to at one door: its VC and the count
// of end-of-frame cells this door has passed on that VC.
func (t *tracer) cellID(c *atm.Cell) uint64 {
	vc := c.Header.VC()
	n := t.frames[vc]
	if c.Header.PT.EndOfFrame() {
		t.frames[vc] = n + 1
	}
	return uint64(vc.VPI)<<48 | uint64(vc.VCI)<<32 | n&0xffffffff
}

// shim wraps a cell consumer in a door span.
type shim struct {
	t    *tracer
	d    door
	next atm.CellConsumer
}

func (s *shim) DeliverCell(c *atm.Cell) {
	id := s.t.cellID(c) // read before the call: the consumer may recycle c
	s.t.begin(s.d)
	s.next.DeliverCell(c)
	s.t.end(id)
}

// traceSet is the tracers of one traced batch: one per partition kernel
// plus the slicer's, which times the slices.
type traceSet struct {
	epoch  time.Time
	root   atomic.Int64
	slicer *tracer
	byK    map[*sim.Kernel]*tracer
	order  []*tracer
}

func newTraceSet(kernels []*sim.Kernel, keepCap int) *traceSet {
	ts := &traceSet{epoch: time.Now(), byK: make(map[*sim.Kernel]*tracer)}
	ts.slicer = newTracer(ts.epoch, 0, nil, keepCap)
	for i, k := range kernels {
		t := newTracer(ts.epoch, i+1, &ts.root, keepCap)
		ts.byK[k] = t
		ts.order = append(ts.order, t)
	}
	return ts
}

func (ts *traceSet) forKernel(k *sim.Kernel) *tracer { return ts.byK[k] }

func (ts *traceSet) all() []*tracer { return append([]*tracer{ts.slicer}, ts.order...) }

// runSliced advances the network to horizon in slices of the given length,
// recording each slice as a span and sampling the kernels' pending-event
// count at every slice boundary. It returns the pending high-water mark.
func (ts *traceSet) runSliced(run func(sim.Time), now sim.Time, horizon sim.Time, slice sim.Duration, kernels []*sim.Kernel) int {
	hw := 0
	for now < horizon {
		next := now + slice
		if next > horizon {
			next = horizon
		}
		ts.slicer.begin(doorSlice)
		ts.root.Store(ts.slicer.stack[len(ts.slicer.stack)-1].id)
		run(next)
		ts.slicer.end(uint64(next))
		now = next
		p := 0
		for _, k := range kernels {
			p += k.Pending()
		}
		if p > hw {
			hw = p
		}
	}
	return hw
}

// dropSpans releases the kept spans once they are written out.
func (ts *traceSet) dropSpans() {
	for _, t := range ts.all() {
		t.kept = nil
	}
}

// total sums the door aggregates over every tracer of the set.
func (ts *traceSet) total() (st [nDoors]doorStats, doorTopNs int64) {
	for _, t := range ts.all() {
		for d := range st {
			st[d].Count += t.stats[d].Count
			st[d].TotalNs += t.stats[d].TotalNs
			st[d].SelfNs += t.stats[d].SelfNs
		}
		if t != ts.slicer {
			doorTopNs += t.topNs
		}
	}
	return st, doorTopNs
}

// writeSpans writes every kept span as tab-separated lines under a header;
// readSpans parses the same format back.
func (ts *traceSet) writeSpans(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id\tparent\tname\tsdu\tstart_ns\tend_ns")
	for _, t := range ts.all() {
		for _, s := range t.kept {
			fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\t%d\n", s.ID, s.Parent, doorNames[s.Door], s.SDU, s.Start, s.End)
		}
	}
	return bw.Flush()
}

func readSpans(r io.Reader) ([]span, error) {
	sc := bufio.NewScanner(r)
	var out []span
	line := 0
	for sc.Scan() {
		line++
		if line == 1 {
			continue
		}
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 6 {
			return nil, fmt.Errorf("span line %d: %d fields", line, len(f))
		}
		d, ok := doorByName(f[2])
		if !ok {
			return nil, fmt.Errorf("span line %d: unknown door %q", line, f[2])
		}
		var s span
		var err error
		nums := []*int64{&s.ID, &s.Parent, nil, nil, &s.Start, &s.End}
		for i, p := range nums {
			if p == nil {
				continue
			}
			if *p, err = strconv.ParseInt(f[i], 10, 64); err != nil {
				return nil, fmt.Errorf("span line %d: %w", line, err)
			}
		}
		if s.SDU, err = strconv.ParseUint(f[3], 10, 64); err != nil {
			return nil, fmt.Errorf("span line %d: %w", line, err)
		}
		s.Door = d
		out = append(out, s)
	}
	return out, sc.Err()
}

func writeSpansFile(path string, ts *traceSet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ts.writeSpans(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
