package core

import (
	"fmt"
	"testing"

	"repro/internal/atm"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/units"
)

// dropWorld is a switch s joining sources a and c to sinks b, d and e,
// configured so that one run loses cells to every drop cause the datapath
// has:
//   - s port 1 (to b) drains at a quarter of the line rate with a CLP
//     threshold: tail drop, and CLP drops of cb's cells, which the ingress
//     policer tags;
//   - s port 3 (to d) drains at a quarter rate with EPD armed: EPD and PPD;
//   - ae is policed to an eighth of its rate (policer discard), and ab is
//     also copied to e on a VC e never opened (multicast clones, unknown-VC
//     drops at the NIC);
//   - a sends on a VC the switch has no route for;
//   - links as and sd lose cells at random, as and se go down for a while
//     (cells lost while down, AIS from the switch, RDI from e that the
//     switch cannot route);
//   - b's engine is too slow for its FIFO (receive FIFO overflow), and a
//     damaged OAM cell is sent to it (bad OAM);
//   - f sends to g over a SONET-framed link that damages every frame
//     (cells lost to header damage, SDUs lost to AAL errors).
func dropWorld(t *testing.T, sharded bool) *Network {
	t.Helper()
	spec := NetworkSpec{
		Endpoints: []EndpointSpec{
			{Name: "a"}, {Name: "c"},
			{Name: "b", Options: Options{EngineMHz: 2, FifoCells: 8}},
			{Name: "d"}, {Name: "e"}, {Name: "f"}, {Name: "g"},
		},
		Switches: []SwitchSpec{{Name: "s", Ports: 5, QueueDepth: 24, AISPeriod: 100 * sim.Microsecond}},
		Links: []LinkSpec{
			{Name: "as", A: NodeRef{Node: "a"}, B: NodeRef{Node: "s", Port: 0}, Delay: 20_000, LossProb: 2e-3, Seed: 1},
			{Name: "sb", A: NodeRef{Node: "s", Port: 1}, B: NodeRef{Node: "b"}, Delay: 50_000, Seed: 2},
			{Name: "cs", A: NodeRef{Node: "c"}, B: NodeRef{Node: "s", Port: 2}, Delay: 20_000, Seed: 3},
			{Name: "sd", A: NodeRef{Node: "s", Port: 3}, B: NodeRef{Node: "d"}, Delay: 50_000, LossProb: 2e-3, Seed: 4},
			{Name: "se", A: NodeRef{Node: "s", Port: 4}, B: NodeRef{Node: "e"}, Delay: 50_000, Seed: 5},
			{Name: "fg", A: NodeRef{Node: "f"}, B: NodeRef{Node: "g"}, Delay: 20_000, Seed: 6, Framed: true, BitErrProb: 1},
		},
		VCCs: []VCCSpec{
			{Name: "ab", From: "a", To: "b", VC: VC{VCI: 100}},
			{Name: "cb", From: "c", To: "b", VC: VC{VCI: 101}},
			{Name: "ad", From: "a", To: "d", VC: VC{VCI: 102}},
			{Name: "cd", From: "c", To: "d", VC: VC{VCI: 103}},
			{Name: "ae", From: "a", To: "e", VC: VC{VCI: 104}},
			{Name: "fg", From: "f", To: "g", VC: VC{VCI: 105}},
		},
	}
	if sharded {
		spec.Partitions = [][]string{{"a", "c", "s"}, {"b", "d", "e", "f", "g"}}
	}
	n, err := NewNetwork(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)

	sw := n.Switch("s")
	cellRate := units.CellRate(Rate155)
	sw.SetPortRate(1, Rate155/4)
	sw.SetPortRate(3, Rate155/4)
	sw.SetThresholds(1, 6, 0, 0)
	sw.SetThresholds(3, 0, 8, 0)
	cb := n.VCC("cb").Hops[0]
	tag := tm.NewPolicer(tm.VBRContract(cellRate, cellRate/8, 16, 0))
	tag.TagSCR = true
	sw.SetPolicer(cb.InPort, cb.InVC, tag)
	ae := n.VCC("ae").Hops[0]
	sw.SetPolicer(ae.InPort, ae.InVC, tm.NewPolicer(tm.CBRContract(cellRate/8, 0)))
	ab := n.VCC("ab").Hops[0]
	sw.SetRoute(ab.InPort, ab.InVC, 4, VC{VCI: 200}, netsim.RouteOptions{Append: true})
	noRoute := VC{VCI: 300}
	if err := n.Endpoint("a").Interface().OpenVC(noRoute); err != nil {
		t.Fatal(err)
	}

	const stop = sim.Time(3 * sim.Millisecond)
	frame := make([]byte, 1500)
	send := func(src string, vcs ...VC) {
		ep := n.Endpoint(src)
		k := n.NodeKernel(src)
		var tick func()
		tick = func() {
			for _, vc := range vcs {
				if err := ep.Send(vc, frame, nil); err != nil {
					t.Error(err)
				}
			}
			if k.Now() < stop {
				k.PostAfter(200*sim.Microsecond, tick)
			}
		}
		k.Post(0, tick)
	}
	send("a", n.VCC("ab").SourceVC, n.VCC("ad").SourceVC, n.VCC("ae").SourceVC, noRoute)
	send("c", n.VCC("cb").SourceVC, n.VCC("cd").SourceVC)
	send("f", n.VCC("fg").SourceVC)

	ka, ks := n.NodeKernel("a"), n.NodeKernel("s")
	as, se := n.Link("as").Fwd, n.Link("se").Fwd
	ka.At(sim.Time(1*sim.Millisecond), as.Fail)
	ka.At(sim.Time(1500*sim.Microsecond), as.Restore)
	ks.At(sim.Time(2*sim.Millisecond), se.Fail)
	ks.At(sim.Time(2500*sim.Microsecond), se.Restore)
	ks.At(1000, func() {
		c := n.poolFor("s").Get()
		c.Header = atm.Header{Format: atm.UNI, VCI: n.VCC("ab").DestVC.VCI, PT: atm.PTOAMEndToEnd}
		for i := range c.Payload {
			c.Payload[i] = 0xa5
		}
		n.Link("sb").Fwd.Send(c)
	})
	return n
}

// TestCellConservation drives every drop cause, serial and on two
// partitions, runs to quiescence and requires every kernel's pool to have
// all its cells back: whichever component finishes with a cell, delivery
// or drop, returns it to the pool of the kernel it is on, and a cut link
// exchanges crossing cells at the barrier instead of moving them between
// pools.
func TestCellConservation(t *testing.T) {
	var stats [2]string
	for i, sharded := range []bool{false, true} {
		n := dropWorld(t, sharded)
		n.Run()
		pools := n.pools
		if want := map[bool]int{false: 1, true: 2}[sharded]; len(pools) != want {
			t.Fatalf("sharded=%v: %d pools, want %d", sharded, len(pools), want)
		}
		for p, pool := range pools {
			gets, puts, fresh := pool.Stats()
			if out := pool.Outstanding(); out != 0 || gets == 0 {
				t.Errorf("sharded=%v pool %d: %d cells outstanding after drain (gets %d, puts %d, fresh %d)",
					sharded, p, out, gets, puts, fresh)
			}
		}

		sw := n.Switch("s").Stats()
		b, e, g := n.Endpoint("b").Stats().Rx, n.Endpoint("e").Stats().Rx, n.Endpoint("g").Stats().Rx
		as, sd, se := n.Link("as").Fwd.Stats(), n.Link("sd").Fwd.Stats(), n.Link("se").Fwd.Stats()
		for cause, count := range map[string]uint64{
			"switch tail drop":         sw.Dropped,
			"switch EPD":               sw.EPDCells,
			"switch PPD":               sw.PPDCells,
			"switch CLP threshold":     sw.CLPDropped,
			"policer tag":              sw.PolicedTagged,
			"policer discard":          sw.PolicedDiscarded,
			"switch no route":          sw.NoRoute,
			"multicast":                sw.Broadcasts,
			"AIS":                      sw.AISCells,
			"link random loss (as)":    as.Lost - as.DroppedDown,
			"link random loss (sd)":    sd.Lost,
			"link down (as)":           as.DroppedDown,
			"link down (se)":           se.DroppedDown,
			"NIC receive FIFO (b)":     b.FifoDrops,
			"NIC bad OAM (b)":          b.BadOAM,
			"NIC unknown VC (e)":       e.UnknownVC,
			"NIC fault mgmt (e) RDI":   n.Endpoint("e").Interface().FMStats().RDITx,
			"framed line SDU loss (g)": g.AALErrors,
		} {
			if count == 0 {
				t.Errorf("sharded=%v: the run never exercised %s", sharded, cause)
			}
		}
		if g.Packets == 0 {
			t.Errorf("sharded=%v: the framed line delivered nothing", sharded)
		}
		stats[i] = fmt.Sprintf("%+v %+v %+v %+v %+v %+v %+v", sw, b, e, g, as, sd, se)
	}
	if stats[0] != stats[1] {
		t.Errorf("sharded run diverged from serial:\nserial  %s\nsharded %s", stats[0], stats[1])
	}
}

// TestPoolsStopAllocatingAcrossCut sends one way over a cut link at a
// constant rate: the sender's partition gets every cell back at the
// barrier, and the receiver's pool supplies the copies and gets them back
// from the interface, so once the pipe is full neither pool allocates.
func TestPoolsStopAllocatingAcrossCut(t *testing.T) {
	n, err := NewNetwork(NetworkSpec{
		Endpoints:  []EndpointSpec{{Name: "a"}, {Name: "b"}},
		Links:      []LinkSpec{{Name: "ab", A: NodeRef{Node: "a"}, B: NodeRef{Node: "b"}, Delay: 100_000}},
		VCCs:       []VCCSpec{{Name: "f", From: "a", To: "b"}},
		Partitions: [][]string{{"a"}, {"b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const stop = sim.Time(20 * sim.Millisecond)
	ep, k, vc := n.Endpoint("a"), n.NodeKernel("a"), n.VCC("f").SourceVC
	frame := make([]byte, 1000)
	var tick func()
	tick = func() {
		if err := ep.Send(vc, frame, nil); err != nil {
			t.Error(err)
		}
		if k.Now() < stop {
			k.PostAfter(50*sim.Microsecond, tick)
		}
	}
	k.Post(0, tick)

	pools := n.pools
	n.RunUntil(sim.Time(2 * sim.Millisecond))
	var warm [2]uint64
	for i, p := range pools {
		_, _, warm[i] = p.Stats()
	}
	n.Run()
	if got := n.Endpoint("b").Stats().Rx.Packets; got != 401 {
		t.Fatalf("delivered %d frames, want 401", got)
	}
	for i, p := range pools {
		gets, _, fresh := p.Stats()
		if fresh != warm[i] || gets < 10*fresh {
			t.Errorf("pool %d: %d fresh cells after warm-up (%d before), %d gets", i, fresh-warm[i], warm[i], gets)
		}
		if out := p.Outstanding(); out != 0 {
			t.Errorf("pool %d: %d cells outstanding after drain", i, out)
		}
	}
}
