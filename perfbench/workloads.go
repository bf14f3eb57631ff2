package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/tm"
	"repro/internal/units"
)

const (
	maxSDU   = 9180 // AAL5 bulk SDU, the paper's MTU
	maxSmall = 1500 // largest open-loop small SDU
	poolSize = 64<<10 + maxSDU
)

// inputs is everything a workload generates from its seed. The simulator
// receives only these; two runs with one seed get byte-identical inputs.
type inputs struct {
	Workload  string
	Seed      uint64
	Streams   []streamInput
	LinkSeeds []uint64
	Starts    []sim.Time // TCP flow start offsets
}

// buildOpts selects how one batch is built.
type buildOpts struct {
	horizon sim.Time // 0: the workload's own batch horizon
	shards  int      // partitions; 0: the workload's own count
	traced  bool     // install door shims and tracers
	profile bool     // take a CPU profile of the run phase
	keep    int      // spans per tracer kept for the trace file
}

// built is one ready network plus the benchmark's view of it.
type built struct {
	net       *core.Network
	kernels   []*sim.Kernel
	endpoints []string
	switches  []string
	streams   []*stream
	receivers []*receiver
	flows     []*tcpFlow
	horizon   sim.Time
	slice     sim.Duration // traced runs advance in slices of this length
	trace     *traceSet
}

// workload is one named benchmark input: its seeded generator, its network
// spec and the set-up that opens VCCs and starts traffic.
type workload struct {
	name    string
	horizon sim.Time // simulated length of one batch
	slice   sim.Duration
	gen     func(seed uint64) *inputs
	shards  int // partitions the batches run at; 0 for an unpartitioned workload
	spec    func(in *inputs, shards int) core.NetworkSpec
	attach  func(b *built, in *inputs) error // VCCs, stacks, flows, sources
}

var workloads = []*workload{lanSonet, wanTCP, islands}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// build runs the set-up phase: NewNetwork, then VCCs/CAC, stacks, flows and
// traffic sources. Input generation happens before and is not part of it.
func (w *workload) build(in *inputs, o buildOpts) (*built, error) {
	shards := o.shards
	if shards == 0 {
		shards = w.shards
	}
	spec := w.spec(in, shards)
	net, err := core.NewNetwork(spec)
	if err != nil {
		return nil, err
	}
	b := &built{net: net, horizon: w.horizon, slice: w.slice}
	if o.horizon > 0 {
		b.horizon = o.horizon
	}
	seen := make(map[*sim.Kernel]bool)
	for _, e := range spec.Endpoints {
		b.endpoints = append(b.endpoints, e.Name)
	}
	for _, s := range spec.Switches {
		b.switches = append(b.switches, s.Name)
	}
	for _, name := range append(append([]string{}, b.endpoints...), b.switches...) {
		if k := net.NodeKernel(name); !seen[k] {
			seen[k] = true
			b.kernels = append(b.kernels, k)
		}
	}
	if o.traced {
		b.trace = newTraceSet(b.kernels, o.keep)
		installShims(b, spec)
	}
	for _, name := range b.endpoints {
		r := &receiver{byVC: make(map[atm.VC]*stream)}
		if b.trace != nil {
			r.tr = b.trace.forKernel(net.NodeKernel(name))
		}
		b.receivers = append(b.receivers, r)
	}
	if err := w.attach(b, in); err != nil {
		net.Close()
		return nil, err
	}
	return b, nil
}

func (b *built) receiverOf(name string) *receiver {
	for i, n := range b.endpoints {
		if n == name {
			return b.receivers[i]
		}
	}
	panic("perfbench: no endpoint " + name)
}

// addStream opens a VCC and wires its source and receiver; start chooses
// closed or open loop from the input.
func (b *built) addStream(vs core.VCCSpec, in *streamInput) (*core.VCC, error) {
	v, err := b.net.AddVCC(vs)
	if err != nil {
		return nil, err
	}
	k := b.net.NodeKernel(vs.From)
	s := &stream{in: in, idx: len(b.streams), src: v.Source, vc: v.SourceVC, k: k, until: b.horizon}
	if b.trace != nil {
		s.tr = b.trace.forKernel(k)
	}
	b.streams = append(b.streams, s)
	r := b.receiverOf(vs.To)
	if len(r.byVC) == 0 {
		v.Dest.OnReceive(r.deliver)
	}
	r.byVC[v.DestVC] = s
	return v, nil
}

func (b *built) startStreams() {
	for _, s := range b.streams {
		if s.in.Arrivals != nil {
			s.startOpen()
		} else {
			s.startClosed()
		}
	}
}

// installShims re-attaches every cell-granular fiber's delivery end and
// every producer's output through timing shims, and every framed link's
// transmit end through a sonetlink door.
func installShims(b *built, spec core.NetworkSpec) {
	isSwitch := make(map[string]bool)
	for _, s := range spec.Switches {
		isSwitch[s.Name] = true
	}
	tr := func(node string) *tracer { return b.trace.forKernel(b.net.NodeKernel(node)) }
	for _, ls := range spec.Links {
		l := b.net.Link(ls.Name)
		if l.Framed != nil {
			for _, d := range []struct {
				node string
				half atm.CellConsumer
			}{{ls.A.Node, l.Framed.AtoB}, {ls.B.Node, l.Framed.BtoA}} {
				b.net.Endpoint(d.node).Interface().AttachSink(&shim{t: tr(d.node), d: doorSonet, next: d.half})
			}
			continue
		}
		for _, d := range []struct {
			from, to core.NodeRef
			half     *phy.CellLink
		}{{ls.A, ls.B, l.Fwd}, {ls.B, ls.A, l.Rev}} {
			in := doorNIC
			if isSwitch[d.to.Node] {
				in = doorSwitch
			}
			d.half.AttachSink(&shim{t: tr(d.to.Node), d: in, next: d.half.Sink()})
			out := &shim{t: tr(d.from.Node), d: doorPhy, next: d.half}
			if isSwitch[d.from.Node] {
				b.net.Switch(d.from.Node).Port(d.from.Port).AttachSink(out)
			} else {
				b.net.Endpoint(d.from.Node).Interface().AttachSink(out)
			}
		}
	}
}

// ---- lan_sonet ---------------------------------------------------------

// lanSonet is the paper's host-interface datapath: two stations on one
// framed STS-3c fiber, a windowed bulk VC and an open-loop small-SDU VC.
var lanSonet = &workload{
	name:    "lan_sonet",
	horizon: lanHorizon,
	slice:   100 * sim.Microsecond,
	gen: func(seed uint64) *inputs {
		r := sim.NewRand(seed ^ 0x1a5)
		in := &inputs{Workload: "lan_sonet", Seed: seed, LinkSeeds: []uint64{r.Uint64() >> 1}}
		in.Streams = append(in.Streams,
			streamInput{Name: "bulk", Pool: randBytes(r, poolSize), Sizes: []int{maxSDU}, Window: 4})
		small := streamInput{Name: "small", Pool: randBytes(r, poolSize)}
		// Poisson arrivals at a mean 150 µs gap (~6.7k SDUs/s, ~40 Mb/s
		// of 40-1500 B SDUs) over the batch horizon.
		for t := r.ExpDuration(lanSmallGap); t < lanHorizon; t += r.ExpDuration(lanSmallGap) {
			small.Arrivals = append(small.Arrivals, t)
			small.Sizes = append(small.Sizes, 40+r.Intn(maxSmall-40+1))
		}
		in.Streams = append(in.Streams, small)
		return in
	},
	spec: func(in *inputs, _ int) core.NetworkSpec {
		return core.NetworkSpec{
			// A interleaves its two VCs' cells, so the small SDUs are not
			// queued behind whole bulk frames.
			Endpoints: []core.EndpointSpec{{Name: "A", Options: core.Options{InterleaveVCs: true}}, {Name: "B"}},
			Links: []core.LinkSpec{{
				Name: "ab", A: core.NodeRef{Node: "A"}, B: core.NodeRef{Node: "B"},
				DistanceKm: 2, Framed: true, BitErrProb: 2e-3, Seed: in.LinkSeeds[0],
			}},
		}
	},
	attach: func(b *built, in *inputs) error {
		if _, err := b.addStream(core.VCCSpec{Name: "bulk", From: "A", To: "B", VC: atm.VC{VCI: 100}}, &in.Streams[0]); err != nil {
			return err
		}
		if _, err := b.addStream(core.VCCSpec{Name: "small", From: "A", To: "B", VC: atm.VC{VCI: 101}}, &in.Streams[1]); err != nil {
			return err
		}
		b.startStreams()
		return nil
	},
}

const (
	lanHorizon  = 120 * sim.Millisecond
	lanSmallGap = 150 * sim.Microsecond
)

// ---- wan_tcp -------------------------------------------------------------

const (
	wanFlows      = 4
	wanMSS        = 9140 // 9180-B IP MTU minus IP+TCP headers
	wanHop        = 5 * sim.Millisecond
	wanRTT        = 4 * wanHop
	wanFrameCells = 192
)

// wanQueue is the bottleneck buffer: half the path's bandwidth-delay
// product in cells.
var wanQueue = int(units.CellRate(units.STS3cPayload)*float64(wanRTT)/float64(sim.Second)) / 2

// wanTCP is E19-shaped: four Reno flows over LLC/SNAP from two stations
// through one switch whose buffer is half the path BDP, EPD armed.
var wanTCP = &workload{
	name:    "wan_tcp",
	horizon: 400 * sim.Millisecond,
	slice:   250 * sim.Microsecond,
	gen: func(seed uint64) *inputs {
		r := sim.NewRand(seed ^ 0x7c9)
		in := &inputs{Workload: "wan_tcp", Seed: seed}
		for i := 0; i < 3; i++ {
			in.LinkSeeds = append(in.LinkSeeds, r.Uint64()>>1)
		}
		for i := 0; i < wanFlows; i++ {
			in.Starts = append(in.Starts, sim.Time(r.Intn(int(wanRTT))))
		}
		return in
	},
	spec: func(in *inputs, _ int) core.NetworkSpec {
		return core.NetworkSpec{
			Endpoints: []core.EndpointSpec{
				{Name: "a", Options: core.Options{InterleaveVCs: true}},
				{Name: "b", Options: core.Options{InterleaveVCs: true}},
				{Name: "c"},
			},
			Switches: []core.SwitchSpec{{Name: "sw", Ports: 3, Rate: units.STS3cPayload, QueueDepth: wanQueue}},
			Links: []core.LinkSpec{
				{Name: "a-sw", A: core.NodeRef{Node: "a"}, B: core.NodeRef{Node: "sw", Port: 0}, Delay: wanHop, Seed: in.LinkSeeds[0]},
				{Name: "b-sw", A: core.NodeRef{Node: "b"}, B: core.NodeRef{Node: "sw", Port: 1}, Delay: wanHop, Seed: in.LinkSeeds[1]},
				{Name: "sw-c", A: core.NodeRef{Node: "sw", Port: 2}, B: core.NodeRef{Node: "c"}, Delay: wanHop, Seed: in.LinkSeeds[2]},
			},
		}
	},
	attach: func(b *built, in *inputs) error {
		// EPD leaves 1.5 frames of headroom, so an accepted frame does
		// not overrun the buffer at full overload.
		b.net.Switch("sw").SetThresholds(2, 0, wanQueue-3*wanFrameCells/2, 0)
		stacks := map[string]*ip.Stack{}
		for i, name := range []string{"a", "b", "c"} {
			stacks[name] = ip.NewStack(b.net.Endpoint(name).Interface(), ip.LLCSnap, ip.Addr{10, 0, 0, byte(i + 1)})
		}
		cfg := tcp.Config{MSS: wanMSS, RcvWnd: 512 << 10, InitialRTO: 50 * sim.Millisecond}
		k := b.net.NodeKernel("c")
		for i := 0; i < wanFlows; i++ {
			src := []string{"a", "b"}[i%2]
			name := fmt.Sprintf("f%d", i)
			v, err := b.net.AddVCC(core.VCCSpec{Name: name, From: src, To: "c", VC: atm.VC{VCI: uint16(101 + i)}, Duplex: true})
			if err != nil {
				return err
			}
			f := tcp.NewFlow(k, name, stacks[src], v.SourceVC, stacks["c"], v.DestVC, cfg)
			tf := &tcpFlow{f: f, idx: i, snd: stacks[src].Addr(), rcv: stacks["c"].Addr()}
			if b.trace != nil {
				tf.rcvTr = b.trace.forKernel(b.net.NodeKernel("c"))
				tf.sndTr = b.trace.forKernel(b.net.NodeKernel(src))
			}
			stacks["c"].Bind(v.DestVC, tf.onData)
			stacks[src].Bind(v.SourceVC, tf.onAck)
			b.flows = append(b.flows, tf)
			k.At(in.Starts[i], func() { f.Start(0, nil) })
		}
		return nil
	},
}

// tcpFlow verifies a TCP flow's segments at both ends on their way into
// the Reno halves and hashes what arrived.
type tcpFlow struct {
	f            *tcp.Flow
	idx          int
	snd, rcv     ip.Addr
	sndTr, rcvTr *tracer

	segs, acks       uint64
	failed           uint64
	segHash, ackHash uint64
}

var zeroPayload = make([]byte, wanMSS)

func (t *tcpFlow) onData(h ip.Header, payload []byte, at sim.Time) {
	if t.rcvTr != nil {
		t.rcvTr.begin(doorRecv)
	}
	seg, err := tcp.ParseSegment(h.Src, h.Dst, payload)
	if err != nil || h.Src != t.snd || h.Dst != t.rcv || len(seg.Payload) == 0 ||
		!bytes.Equal(seg.Payload, zeroPayload[:len(seg.Payload)]) {
		t.failed++
	} else {
		t.segs++
		t.segHash = mix(mix(mix(t.segHash, uint64(seg.Seq)), uint64(len(seg.Payload))), uint64(at))
	}
	t.f.Receiver.HandleSegment(h, payload, at)
	if t.rcvTr != nil {
		t.rcvTr.end(uint64(t.idx)<<32 | uint64(seg.Seq))
	}
}

func (t *tcpFlow) onAck(h ip.Header, payload []byte, at sim.Time) {
	if t.sndTr != nil {
		t.sndTr.begin(doorRecv)
	}
	seg, err := tcp.ParseSegment(h.Src, h.Dst, payload)
	if err != nil || h.Src != t.rcv || h.Dst != t.snd || len(seg.Payload) != 0 {
		t.failed++
	} else {
		t.acks++
		t.ackHash = mix(mix(t.ackHash, uint64(seg.Ack)), uint64(at))
	}
	t.f.Sender.HandleSegment(h, payload, at)
	if t.sndTr != nil {
		t.sndTr.end(uint64(t.idx)<<32 | uint64(seg.Ack))
	}
}

// attempted counts the SDUs the flow handed to its stack: data segments,
// retransmissions and ACKs.
func (t *tcpFlow) attempted() uint64 {
	s := t.f.Sender.Stats()
	return s.Segments + s.Retransmits + t.f.Receiver.Stats().AcksSent
}

// ---- islands -----------------------------------------------------------

const (
	nIslands = 4
	// islandShards is the partition count the islands batches run at: two,
	// split along island boundaries, one per core of a 2-core host.
	islandShards = 2
	islandLink   = 50 * sim.Microsecond // inter-switch fibre: the lookahead
	islandAccess = 1 * sim.Microsecond
	islandCBR    = 0.1 // CBR peak rate as a share of the STS-3c cell rate
	islandQueue  = 512 // switch output buffer, cells
	islandEFCI   = 48  // EFCI marking threshold, cells
	// islandEPD refuses new frames above this occupancy, leaving room for
	// one whole 192-cell bulk frame.
	islandEPD = islandQueue - 256
)

func isl(format string, i int) string { return fmt.Sprintf(format, i) }

// islands chains four switch islands, each with a bulk UBR pair, a shaped
// and policed CBR VCC and a duplex ABR VCC into the next island, and runs
// them on two partitions.
var islands = &workload{
	name:    "islands",
	shards:  islandShards,
	horizon: 40 * sim.Millisecond,
	slice:   100 * sim.Microsecond,
	gen: func(seed uint64) *inputs {
		r := sim.NewRand(seed ^ 0x15a)
		in := &inputs{Workload: "islands", Seed: seed}
		for i := 1; i <= nIslands; i++ {
			cbr := streamInput{Name: isl("cbr%d", i), Pool: randBytes(r, poolSize), Window: 2}
			abr := streamInput{Name: isl("abr%d", i), Pool: randBytes(r, poolSize), Window: 4}
			for j := 0; j < 64; j++ {
				cbr.Sizes = append(cbr.Sizes, 40+r.Intn(maxSmall-40+1))
				abr.Sizes = append(abr.Sizes, maxSmall+r.Intn(maxSDU-maxSmall+1))
			}
			in.Streams = append(in.Streams,
				streamInput{Name: isl("ubr%d", i), Pool: randBytes(r, poolSize), Sizes: []int{maxSDU}, Window: 4},
				cbr, abr)
			for j := 0; j < 4; j++ {
				in.LinkSeeds = append(in.LinkSeeds, r.Uint64()>>1)
			}
		}
		return in
	},
	spec: func(in *inputs, shards int) core.NetworkSpec {
		erica := netsim.ERICAConfig{TargetUtil: 0.9, Interval: 200 * sim.Microsecond}
		var spec core.NetworkSpec
		for i := 1; i <= nIslands; i++ {
			sw := isl("sw%d", i)
			spec.Switches = append(spec.Switches, core.SwitchSpec{
				Name: sw, Ports: 5, QueueDepth: islandQueue, EFCIThreshold: islandEFCI, ERICA: &erica,
			})
			for p, ep := range []string{isl("a%d", i), isl("b%d", i), isl("c%d", i)} {
				// Interleaving lets c's shaped CBR and ACR-paced ABR
				// VCs each keep their own pace.
				spec.Endpoints = append(spec.Endpoints, core.EndpointSpec{Name: ep, Options: core.Options{InterleaveVCs: true}})
				spec.Links = append(spec.Links, core.LinkSpec{
					Name: ep + "-" + sw, A: core.NodeRef{Node: ep}, B: core.NodeRef{Node: sw, Port: p},
					Delay: islandAccess, Seed: in.LinkSeeds[4*(i-1)+p],
				})
			}
			if i > 1 {
				spec.Links = append(spec.Links, core.LinkSpec{
					Name: isl("sw%d", i-1) + "-" + sw,
					A:    core.NodeRef{Node: isl("sw%d", i-1), Port: 4}, B: core.NodeRef{Node: sw, Port: 3},
					Delay: islandLink, Seed: in.LinkSeeds[4*(i-1)+3],
				})
			}
		}
		if shards > 1 {
			per := nIslands / shards
			spec.Partitions = make([][]string, shards)
			for i := 1; i <= nIslands; i++ {
				p := (i - 1) / per
				spec.Partitions[p] = append(spec.Partitions[p], isl("a%d", i), isl("b%d", i), isl("c%d", i), isl("sw%d", i))
			}
		}
		return spec
	},
	attach: func(b *built, in *inputs) error {
		rate := units.CellRate(units.STS3cPayload)
		for i := 1; i <= nIslands; i++ {
			for p := 0; p < 5; p++ {
				b.net.Switch(isl("sw%d", i)).SetThresholds(p, 0, islandEPD, islandEFCI)
			}
		}
		for i := 1; i <= nIslands; i++ {
			next := i%nIslands + 1
			s := in.Streams[3*(i-1):]
			if _, err := b.addStream(core.VCCSpec{Name: isl("ubr%d", i), From: isl("a%d", i), To: isl("b%d", i),
				VC: atm.VC{VCI: uint16(100 + i)}}, &s[0]); err != nil {
				return err
			}
			contract := tm.CBRContract(islandCBR*rate, 20*sim.Microsecond)
			v, err := b.addStream(core.VCCSpec{Name: isl("cbr%d", i), From: isl("c%d", i), To: isl("b%d", i),
				VC: atm.VC{VCI: uint16(120 + i)}, Contract: contract, Shape: true}, &s[1])
			if err != nil {
				return err
			}
			h := v.Hops[0]
			h.Switch.SetPolicer(h.InPort, h.InVC, tm.NewPolicer(contract))
			if _, err := b.addStream(core.VCCSpec{Name: isl("abr%d", i), From: isl("c%d", i), To: isl("b%d", next),
				VC: atm.VC{VCI: uint16(140 + i)}, Duplex: true,
				ABR: &tm.ABRParams{PCR: rate, ICR: rate / 8, Nrm: 32}}, &s[2]); err != nil {
				return err
			}
		}
		b.startStreams()
		return nil
	},
}

func randBytes(r *sim.Rand, n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < n; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b
}

// ---- outcome -----------------------------------------------------------

// outcome is what one batch's simulated result comes to.
type outcome struct {
	cells       uint64 // cells received by destination interfaces
	events      uint64 // kernel dispatches, all partitions
	attempted   uint64 // SDUs handed to the simulator
	failed      uint64 // SDUs delivered wrong
	fingerprint string
}

// outcome hashes the simulated result (see describe) and totals what the
// batch attempted and got wrong.
func (b *built) outcome() outcome {
	text, o := b.describe()
	sum := sha256.Sum256([]byte(text))
	o.fingerprint = hex.EncodeToString(sum[:8])
	return o
}

// describe renders the simulated result: deliveries per stream with times
// and payload digests, delivered cells, drop causes, switch and TCP stats,
// the metrics registry and the final simulated time.
func (b *built) describe() (string, outcome) {
	var o outcome
	var sb strings.Builder
	fmt.Fprintf(&sb, "now %d\n", b.net.Now())
	for _, s := range b.streams {
		fmt.Fprintf(&sb, "stream %s sent %d delivered %d failed %d rx %016x\n", s.in.Name, s.sent, s.delivered, s.failed, s.rxHash)
		o.attempted += s.sent
		o.failed += s.failed
	}
	for i, r := range b.receivers {
		fmt.Fprintf(&sb, "strayed %s %d\n", b.endpoints[i], r.strayed)
		o.failed += r.strayed
	}
	for _, f := range b.flows {
		fmt.Fprintf(&sb, "flow %d segs %d acks %d failed %d %016x %016x %+v %+v\n", f.idx, f.segs, f.acks, f.failed,
			f.segHash, f.ackHash, f.f.Sender.Stats(), f.f.Receiver.Stats())
		o.attempted += f.attempted()
		o.failed += f.failed
	}
	for _, name := range b.endpoints {
		st := b.net.Endpoint(name).Stats()
		fmt.Fprintf(&sb, "ep %s rx %+v tx %+v\n", name, st.Rx, st.Tx)
		o.cells += st.Rx.Cells
	}
	for _, name := range b.switches {
		fmt.Fprintf(&sb, "sw %s %+v\n", name, b.net.Switch(name).Stats())
	}
	snap, err := json.Marshal(b.net.Metrics().Snapshot())
	if err != nil {
		panic(err)
	}
	sb.Write(snap)
	for _, k := range b.kernels {
		o.events += k.Dispatched()
	}
	return sb.String(), o
}

// poolStats sums the interfaces' cell-pool accounting. idle is the cells
// parked in the free lists, counted by drawing them out until the pool has
// to allocate, so it runs last: the pools are empty afterwards.
func (b *built) poolStats() (gets, fresh, idle uint64) {
	for _, name := range b.endpoints {
		pool := b.net.Endpoint(name).Interface().Pool()
		g, _, n := pool.Stats()
		gets, fresh = gets+g, fresh+n
		for {
			pool.Get()
			if _, _, after := pool.Stats(); after > n {
				break
			}
			idle++
		}
	}
	return
}
