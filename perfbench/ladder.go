package main

import (
	"math"
	"runtime"
	"time"

	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/crc"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/sonet"
	"repro/internal/tcp"
	"repro/internal/tm"
	"repro/internal/units"
)

// ladderShape is what a workload's ladder runs on and how often its cells
// cross each coarse rung.
type ladderShape struct {
	delays     []sim.Duration // link delays: Post+dispatch and CellLink transit
	fanIn      int            // switch inputs converging on one output
	contract   tm.TrafficContract
	phyHops    int  // CellLink crossings per delivered cell
	switchHops int  // switch crossings per delivered cell
	framed     bool // cells cross a SONET framer and deframer
}

func shapeOf(name string) ladderShape {
	rate := units.CellRate(units.STS3cPayload)
	switch name {
	case "lan_sonet":
		return ladderShape{delays: []sim.Duration{phy.PropDelay(2)}, fanIn: 1,
			contract: tm.UBRContract(units.STS3cPayload), framed: true}
	case "wan_tcp":
		return ladderShape{delays: []sim.Duration{wanHop}, fanIn: 2,
			contract: tm.UBRContract(units.STS3cPayload), phyHops: 2, switchHops: 1}
	default:
		return ladderShape{delays: []sim.Duration{islandAccess, islandLink}, fanIn: 3,
			contract: tm.CBRContract(islandCBR*rate, 20*sim.Microsecond), phyHops: 2, switchHops: 1}
	}
}

// sduMix is a sample of the workload's own SDUs, in the proportions it
// sends them.
func sduMix(w *workload, in *inputs) [][]byte {
	var mix [][]byte
	if w == wanTCP {
		src, dst := ip.Addr{10, 0, 0, 1}, ip.Addr{10, 0, 0, 3}
		for i := 0; i < 16; i++ {
			data := (&tcp.Segment{Seq: uint32(1 + i*wanMSS), Flags: tcp.FlagACK, Payload: zeroPayload}).Marshal(src, dst)
			ack := (&tcp.Segment{Seq: 1, Ack: uint32(1 + i*wanMSS), Flags: tcp.FlagACK}).Marshal(dst, src)
			for _, seg := range []struct {
				b        []byte
				src, dst ip.Addr
			}{{data, src, dst}, {ack, dst, src}} {
				h := ip.Header{TTL: 64, Proto: ip.ProtoTCP, Src: seg.src, Dst: seg.dst}
				mix = append(mix, ip.Encapsulate(ip.LLCSnap, ip.EtherTypeIPv4, h.Datagram(seg.b)))
			}
		}
		return mix
	}
	for i := range in.Streams {
		s := &in.Streams[i]
		n := 16
		if s.Arrivals != nil {
			n = 64 // many small SDUs carry the cells of one bulk SDU
		}
		for seq := 0; seq < n; seq++ {
			mix = append(mix, s.fill(make([]byte, maxSDU), uint64(seq)))
		}
	}
	return mix
}

// ladderCells segments the mix into cells on the workload's VC.
func ladderCells(mix [][]byte) []atm.Cell {
	var cells []atm.Cell
	seg := aal.NewSegmenter5()
	for _, sdu := range mix {
		if _, err := seg.Begin(sdu); err != nil {
			panic(err)
		}
		for {
			var c atm.Cell
			c.Header.VCI = 100
			pt, last, err := seg.Next(&c.Payload)
			if err != nil {
				panic(err)
			}
			c.Header.PT = pt
			cells = append(cells, c)
			if last {
				break
			}
		}
	}
	return cells
}

// rung is one ladder stage's result.
type rung struct {
	name          string
	nsPerCell     float64
	allocsPerCell float64
}

// timeRung runs fn until budget is spent; fn processes some cells and
// returns how many. The time is the fastest repetition's, the same
// least-interference reading cells_per_s takes of its batches; allocations
// are counted over all of them.
func timeRung(name string, budget time.Duration, fn func() int) rung {
	fn() // warm caches and lazily built state
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	cells := 0
	best := math.Inf(1)
	for cells == 0 || time.Since(start) < budget {
		t := time.Now()
		n := fn()
		best = min(best, float64(time.Since(t).Nanoseconds())/float64(n))
		cells += n
	}
	runtime.ReadMemStats(&m1)
	return rung{name: name, nsPerCell: best, allocsPerCell: float64(m1.Mallocs-m0.Mallocs) / float64(cells)}
}

// runLadder times each stage's public entry points on the workload's own
// SDUs and cells, each component on its own kernel.
func runLadder(w *workload, in *inputs, budget time.Duration) []rung {
	sh := shapeOf(w.name)
	mix := sduMix(w, in)
	cells := ladderCells(mix)
	wire := make([][atm.CellSize]byte, len(cells))
	for i := range cells {
		if err := cells[i].Encode(wire[i][:]); err != nil {
			panic(err)
		}
	}
	type stage struct {
		name string
		fn   func() int
	}
	var stages []stage
	add := func(name string, fn func() int) { stages = append(stages, stage{name, fn}) }

	add("atm.codec", func() int {
		var buf [atm.CellSize]byte
		var d atm.Cell
		for i := range cells {
			_ = cells[i].Encode(buf[:])
			_, _ = d.Decode(buf[:], atm.UNI)
		}
		return len(cells)
	})
	add("crc.hec", func() int {
		var x byte
		for i := range wire {
			x ^= crc.HEC([4]byte(wire[i][:4]))
		}
		sinkByte = x
		return len(wire)
	})
	add("crc.crc32", func() int {
		var x uint32
		for _, sdu := range mix {
			x ^= crc.CRC32(sdu)
		}
		sinkWord = x
		return len(cells)
	})
	add("aal.seg", func() int {
		seg := aal.NewSegmenter5()
		var p [atm.PayloadSize]byte
		for _, sdu := range mix {
			_, _ = seg.Begin(sdu)
			for {
				if _, last, _ := seg.Next(&p); last {
					break
				}
			}
		}
		return len(cells)
	})
	add("aal.reasm", func() int {
		r := aal.NewReassembler5(maxSDU + 64)
		for i := range cells {
			if _, err := r.Push(&cells[i].Payload, cells[i].Header.PT); err != nil {
				panic(err)
			}
		}
		return len(cells)
	})
	add("sonet.frame", func() int {
		src := &wireSource{wire: wire}
		f := sonet.NewFramer(sonet.STS3c, src)
		buf := make([]byte, f.Geometry().FrameBytes)
		for src.n < len(wire) {
			f.NextFrame(buf)
		}
		return src.n
	})
	frames := framesOf(wire)
	add("sonet.deframe", func() int {
		n := 0
		d := sonet.NewDeframer(sonet.STS3c, sonet.NewDelineator(func([]byte, bool) { n++ }))
		for _, fr := range frames {
			_ = d.PushFrame(fr)
		}
		return n
	})
	add("nic.tx", func() int { return nicTx(mix) })
	add("nic.rx", func() int { return nicRx(cells) })
	add("phy.transit", func() int { return phyTransit(cells, sh.delays) })
	add("netsim.switch", func() int { return switchRun(cells, sh.fanIn) })
	add("tm.gcra", func() int {
		p := tm.NewPolicer(sh.contract)
		inc := sh.contract.PeakIncrement()
		var t sim.Time
		for range cells {
			t += inc
			p.Police(t, false)
		}
		return len(cells)
	})
	add("sim.post_dispatch", func() int { return postDispatch(sh.delays) })
	out := make([]rung, len(stages))
	for i, st := range stages {
		out[i] = timeRung(st.name, budget/time.Duration(len(stages)), st.fn)
	}
	return out
}

var (
	sinkByte byte
	sinkWord uint32
)

// wireSource feeds encoded cells to a framer, idle cells once exhausted.
type wireSource struct {
	wire [][atm.CellSize]byte
	n    int
}

func (s *wireSource) NextCell(dst []byte) {
	if s.n < len(s.wire) {
		copy(dst, s.wire[s.n][:])
	} else {
		idle := atm.IdleCell()
		_ = idle.Encode(dst)
	}
	s.n++
}

func framesOf(wire [][atm.CellSize]byte) [][]byte {
	src := &wireSource{wire: wire}
	f := sonet.NewFramer(sonet.STS3c, src)
	var frames [][]byte
	for src.n < len(wire) {
		buf := make([]byte, f.Geometry().FrameBytes)
		f.NextFrame(buf)
		frames = append(frames, buf)
	}
	return frames
}

// nicTx sends the mix through one interface on its own kernel into a sink
// that counts cells and recycles them.
func nicTx(mix [][]byte) int {
	k := sim.NewKernel()
	st, err := netsim.NewStation(k, nic.DefaultConfig("tx"))
	if err != nil {
		panic(err)
	}
	vc := atm.VC{VCI: 100}
	if err := st.Iface.OpenVC(vc); err != nil {
		panic(err)
	}
	n := 0
	pool := st.Iface.Pool()
	st.Iface.AttachSink(atm.SinkFunc(func(c *atm.Cell) { n++; pool.Put(c) }))
	for i := 0; i < len(mix); i += 8 {
		for _, sdu := range mix[i:min(i+8, len(mix))] {
			if err := st.Iface.Send(vc, sdu, nil); err != nil {
				panic(err)
			}
		}
		k.Run()
	}
	return n
}

// nicRx feeds pre-segmented cells into one interface's receive door at the
// line's cell rate.
func nicRx(cells []atm.Cell) int {
	k := sim.NewKernel()
	st, err := netsim.NewStation(k, nic.DefaultConfig("rx"))
	if err != nil {
		panic(err)
	}
	if err := st.Iface.OpenVC(atm.VC{VCI: 100}); err != nil {
		panic(err)
	}
	pool := st.Iface.Pool()
	ct := units.CellTime(units.STS3cPayload)
	i := 0
	var step func()
	step = func() {
		c := pool.Get()
		*c = cells[i]
		st.Iface.DeliverCell(c)
		if i++; i < len(cells) {
			k.PostAfter(ct, step)
		}
	}
	k.Post(0, step)
	k.Run()
	return len(cells)
}

// phyTransit sends cells across CellLinks at the workload's delays.
func phyTransit(cells []atm.Cell, delays []sim.Duration) int {
	k := sim.NewKernel()
	pool := atm.NewPool(0)
	var links []*phy.CellLink
	for i, d := range delays {
		links = append(links, phy.NewCellLink(k, d, uint64(i+1), atm.SinkFunc(pool.Put)))
	}
	for i := 0; i < len(cells); i += 1024 {
		for j := i; j < min(i+1024, len(cells)); j++ {
			c := pool.Get()
			*c = cells[j]
			links[j%len(links)].Send(c)
		}
		k.Run()
	}
	return len(cells)
}

// switchRun drives a standalone switch with fanIn inputs converging on one
// output, the inputs sharing the output's line rate.
func switchRun(cells []atm.Cell, fanIn int) int {
	k := sim.NewKernel()
	sw := netsim.NewSwitch(k, "ladder", fanIn+1, units.STS3cPayload, 256)
	pool := atm.NewPool(0)
	n := 0
	sw.Port(fanIn).AttachSink(atm.SinkFunc(func(c *atm.Cell) { n++; pool.Put(c) }))
	for p := 0; p < fanIn; p++ {
		sw.SetRoute(p, atm.VC{VCI: uint16(100 + p)}, fanIn, atm.VC{VCI: uint16(100 + p)}, netsim.RouteOptions{})
	}
	gap := units.CellTime(units.STS3cPayload) * sim.Duration(fanIn)
	for p := 0; p < fanIn; p++ {
		p, i := p, p
		port := sw.Port(p)
		var step func()
		step = func() {
			c := pool.Get()
			*c = cells[i]
			c.Header.VCI = uint16(100 + p)
			port.DeliverCell(c)
			if i += fanIn; i < len(cells) {
				k.PostAfter(gap, step)
			}
		}
		k.Post(sim.Time(p), step)
	}
	k.Run()
	return n
}

// postDispatch posts no-op events at the workload's link delays and
// dispatches them.
func postDispatch(delays []sim.Duration) int {
	k := sim.NewKernel()
	noop := func() {}
	const batch = 4096
	for r := 0; r < 4; r++ {
		for i := 0; i < batch; i++ {
			k.Post(k.Now()+delays[i%len(delays)]+sim.Duration(i), noop)
		}
		k.Run()
	}
	return 4 * batch
}
