package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// coreRun captures everything a per-cell golden test pins at the builder
// level: every delivered SDU with its nanosecond timestamp and payload head,
// the whole metrics registry (per-VC rows, link counters, drop attribution),
// and the flight recorder's matched spans in sorted order.
type coreRun struct {
	deliveries []string
	metrics    string
	spans      []trace.Span
	unmatched  int
	net        *Network
}

// buildRun constructs the spec with a recorder installed, hands the network
// to drive for traffic injection, runs to completion and collects the state
// the golden digests cover. The spec's Kernel/Recorder fields are
// overwritten.
func buildRun(t *testing.T, spec NetworkSpec, drive func(*Network, *coreRun)) coreRun {
	t.Helper()
	k := sim.NewKernel()
	rec := trace.NewRecorder(k, 1<<16)
	spec.Kernel = k
	spec.Recorder = rec
	net, err := NewNetwork(spec)
	if err != nil {
		t.Fatal(err)
	}
	run := coreRun{net: net}
	drive(net, &run)
	net.Run()
	var sb bytes.Buffer
	if err := net.Metrics().Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	run.metrics = sb.String()
	spans, unmatched := rec.Spans()
	trace.SortSpans(spans)
	run.spans = spans
	run.unmatched = unmatched
	return run
}

// runDigest is the SHA-256 (hex) of each part of a coreRun.
type runDigest struct {
	deliveries, metrics, spans string
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func (r coreRun) digest() runDigest {
	var sp strings.Builder
	fmt.Fprintf(&sp, "unmatched=%d\n", r.unmatched)
	for _, s := range r.spans {
		fmt.Fprintf(&sp, "%d %d/%d %d %d\n", s.Stage, s.VC.VPI, s.VC.VCI, int64(s.Start), int64(s.End))
	}
	return runDigest{
		deliveries: sha(strings.Join(r.deliveries, "\n")),
		metrics:    sha(r.metrics),
		spans:      sha(sp.String()),
	}
}

// requireDigest is the golden comparison: the run must reproduce the pinned
// deliveries, registry and spans byte for byte. On a mismatch it prints the
// new digest as a Go literal; a change that moves it on purpose must say
// why.
func requireDigest(t *testing.T, label string, run coreRun, want runDigest) {
	t.Helper()
	if got := run.digest(); got != want {
		t.Errorf("%s: run differs from the pinned golden output; got\n\t{%q, %q, %q}",
			label, got.deliveries, got.metrics, got.spans)
	}
}

func framedPairSpec(opts Options, seed uint64, bitErrProb float64) NetworkSpec {
	return NetworkSpec{
		Endpoints: []EndpointSpec{
			{Name: "a", Options: opts},
			{Name: "b", Options: opts},
		},
		Links: []LinkSpec{{
			Name: "ab", A: NodeRef{Node: "a"}, B: NodeRef{Node: "b"},
			Delay: 10_000, Seed: seed, Framed: true, BitErrProb: bitErrProb,
		}},
		VCCs: []VCCSpec{{Name: "flow", From: "a", To: "b"}},
	}
}

func record(run *coreRun) func(Packet) {
	return func(p Packet) {
		head := p.Data
		if len(head) > 4 {
			head = head[:4]
		}
		run.deliveries = append(run.deliveries,
			fmt.Sprintf("t=%d vc=%v len=%d cells=%d head=%x", int64(p.At), p.VC, len(p.Data), p.Cells, head))
	}
}

func sendAll(t *testing.T, net *Network, run *coreRun, sizes []int) {
	t.Helper()
	vcc := net.VCC("flow")
	net.Endpoint("b").OnReceive(record(run))
	for i, size := range sizes {
		data := make([]byte, size)
		for j := range data {
			data[j] = byte(i + j)
		}
		if err := net.Endpoint("a").Send(vcc.SourceVC, data, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFramedPairGolden is the E3-shaped golden test: a host-to-host
// throughput run over the full SONET path at both line rates. Every SDU
// arrives, at the pinned nanoseconds, with the pinned registry and spans.
func TestFramedPairGolden(t *testing.T) {
	sizes := []int{9180, 9180, 9180, 4352, 9180, 1500}
	for _, c := range []struct {
		label string
		opts  Options
		want  runDigest
	}{
		{"155", Options{FifoCells: 128}, runDigest{
			"b913aee0e4303f4dcf4aa7a4fe26b18c3084db0a98bc41eab1cfc99992393c56",
			"a3ca73bf726f0025f7a9a039c2811151bca4fb8e8fee4ca59adae4d55c101a47",
			"4e9e8572f35e207466ec5c2031986583d18c92e1253f8c707f76169cb4655eb0"}},
		// At 622 the stock 25 MHz engine saturates (the E3 story); give the
		// pair the upgraded board so the workload actually arrives.
		{"622", Options{Rate: Rate622, FifoCells: 128, EngineMHz: 66, RxEngines: 3}, runDigest{
			"b531b4fbf5b252d6b6d00a255ae54c2c4ceabb0732effcfae29e5195dd5e154c",
			"ae8779756498841ad9af4c19ccd9c89ae6d3c89098beecc299041a88fc7ef0bb",
			"968f5e6db2e24863e80de5556a66d9224119549427e065e9912aef9b91c671b0"}},
	} {
		label := c.label
		run := buildRun(t, framedPairSpec(c.opts, 11, 0), func(net *Network, run *coreRun) { sendAll(t, net, run, sizes) })
		if len(run.deliveries) != len(sizes) {
			t.Fatalf("%s: delivered %d of %d", label, len(run.deliveries), len(sizes))
		}
		requireDigest(t, label, run, c.want)
	}
}

// TestFramedPairLatencyGolden is the E5-shaped golden test: small
// request/response SDUs whose per-delivery timestamps are the measurement.
func TestFramedPairLatencyGolden(t *testing.T) {
	sizes := []int{1, 44, 45, 89, 512, 1000, 2048, 40, 4000}
	run := buildRun(t, framedPairSpec(Options{FifoCells: 128}, 5, 0), func(net *Network, run *coreRun) { sendAll(t, net, run, sizes) })
	if len(run.deliveries) != len(sizes) {
		t.Fatalf("delivered %d of %d", len(run.deliveries), len(sizes))
	}
	requireDigest(t, "latency-shape", run, runDigest{
		"2a595f8c3bdaae96f58f8fdf3f28fc6e4573a343b81f802b471060770e7e393f",
		"23ee3a9cb2472d29153d988b337ca1352eec9efe9ebfeeacdaf352741dc6388b",
		"fe8967d0abb868f26d6f6ae4df8637de285e2f8c6817d585838b5223f935910e"})
}

// TestSwitchTopologyGolden is the E15-shaped golden test: two senders
// congesting one switch output port, plus seeded cell loss on an access
// fiber, with every drop-attribution counter the congestion generates.
func TestSwitchTopologyGolden(t *testing.T) {
	spec := NetworkSpec{
		Endpoints: []EndpointSpec{
			{Name: "a"}, {Name: "b"},
			{Name: "c", Options: Options{ReassemblyTimeout: sim.Millisecond}},
		},
		Switches: []SwitchSpec{
			{Name: "sw", Ports: 3, QueueDepth: 16},
		},
		Links: []LinkSpec{
			{Name: "a-sw", A: NodeRef{Node: "a"}, B: NodeRef{Node: "sw", Port: 0}, Delay: 1000, Seed: 25, LossProb: 0.01},
			{Name: "b-sw", A: NodeRef{Node: "b"}, B: NodeRef{Node: "sw", Port: 1}, Delay: 2400, Seed: 26},
			{Name: "sw-c", A: NodeRef{Node: "sw", Port: 2}, B: NodeRef{Node: "c"}, Seed: 27},
		},
		VCCs: []VCCSpec{
			{Name: "a-c", From: "a", To: "c", VC: VC{VCI: 101}},
			{Name: "b-c", From: "b", To: "c", VC: VC{VCI: 201}},
		},
	}
	run := buildRun(t, spec, func(net *Network, run *coreRun) {
		net.Endpoint("c").OnReceive(record(run))
		for i := 0; i < 10; i++ {
			data := make([]byte, 3000)
			for j := range data {
				data[j] = byte(i ^ j)
			}
			if err := net.Endpoint("a").Send(net.VCC("a-c").SourceVC, data, nil); err != nil {
				t.Fatal(err)
			}
			if err := net.Endpoint("b").Send(net.VCC("b-c").SourceVC, data, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	if !strings.Contains(run.metrics, "drop") {
		t.Fatalf("congestion workload produced no drop rows:\n%s", run.metrics)
	}
	requireDigest(t, "switch-topology", run, runDigest{
		"924882739005ab5c9cca15af49c68e19b2975648a6431dd3f86bb775ec33fe57",
		"1622f859203e696aa65bbd3d14ca05da54b8a4b04385b01e13fc3aec85feb3b2",
		"5cfa4749d41f00a04e41481fa1225deda5bfd370ef7626e6f91d9a20891dc668"})
}

// TestFramedBitErrorSweepGolden varies workload shape, seed and line bit
// errors across both SONET rates. A clean line delivers every SDU. On a
// line with bit errors every SDU is either delivered or counted as an AAL
// error (a frame takes at most one bit error: HEC correction repairs a hit
// header, and a hit payload fails its SDU's CRC; none of these seeds hits
// the framing bytes), and the two heavy cases must actually damage frames
// and lose SDUs.
// (The light cases' per-frame probabilities draw no error in these short
// runs; they pin the seeded fault path staying quiet.)
func TestFramedBitErrorSweepGolden(t *testing.T) {
	cases := []struct {
		opts    Options
		seed    uint64
		bitErr  float64
		nSDU    int
		sizeGen func(i int) int
		want    runDigest
	}{
		{Options{FifoCells: 128}, 1, 0, 9, func(i int) int { return 40 + (i*613)%5000 }, runDigest{
			"dfbd2faa54b6b5804f1ad789a9a3748b4edc93f06f92a5b4bb10c773cdf0275a",
			"4e057e15cfd774849ba5719ac92197ec6855d47330349ef0bb80722d18941b8f",
			"fc38ac6df9b38d941905b921675612dfa298adca3504eff06b062fd75a09d8ab"}},
		{Options{FifoCells: 128}, 9, 2e-4, 14, func(i int) int { return 300 + (i*2897)%4000 }, runDigest{
			"0db1d5bc29c0fa2a6fa5eb3070eca9dafbdbdd9b52d28250a4bb73414a3ce414",
			"f9ac71cd6549ff9582ca14ba9da3f53b8448d242e26e0ff44eff02644669efb3",
			"45e0887edae5028bb1b7508b92915d2ea5b7fbeb60d36a2640d0ae99a1bb3cb7"}},
		{Options{Rate: Rate622, FifoCells: 128}, 4, 0, 9, func(i int) int { return 1 + (i*9181)%9180 }, runDigest{
			"30111e497b4806eccda9a4b0c8742c3f6554c081162c395d9cb1c9efff4edde6",
			"92988745297609580ac2ab7d779789388281c33c32c98cb51a685ba2c6a5a884",
			"effebc117fd4b3dc2700af2b47ce038fcd8492b77c1031b8657377b40e5ff2bd"}},
		{Options{Rate: Rate622, FifoCells: 128}, 7, 5e-4, 14, func(i int) int { return 64 + (i*4099)%8192 }, runDigest{
			"1c3a31f2f685e39f848cafd02418d18dff22469ee0304be403eedb74d667b391",
			"973a0865c07406224c27ca3acd169f79fdf4cb78b993e0f2c6c39930c3968012",
			"68d52a09f676bde363276b8a7589d231c4bc2ea8c2ae0e884fe17debbf3c0942"}},
		{Options{FifoCells: 128}, 9, 0.5, 14, func(i int) int { return 300 + (i*2897)%4000 }, runDigest{
			"7adabb5d2e5d929cef8195b4b92a6caf4e096cb8545cf930162b8d1ce28f3873",
			"181eed6aa32f06df2e9faf3bb6a60a25d8c85fb761104d22d9f358191670223e",
			"3847222508f115802edcf97001b5bcc0e9a0d670be6a916c6cd69ee50477adcb"}},
		{Options{Rate: Rate622, FifoCells: 128}, 7, 1, 14, func(i int) int { return 64 + (i*4099)%8192 }, runDigest{
			"dcf475ca94c89ca4bbc21a171742e494e1ec14e260c6a2da9e4f963090df395b",
			"fcc47b56b2ff3e368221e351bdb76c1ced606d080db0ab23682472e089ba467a",
			"6c06fe8aef1322b77d92158e463ac538e53d3e910b8a838c96b5825974951429"}},
	}
	for ci, c := range cases {
		sizes := make([]int, c.nSDU)
		for i := range sizes {
			sizes[i] = c.sizeGen(i)
		}
		run := buildRun(t, framedPairSpec(c.opts, c.seed, c.bitErr), func(net *Network, run *coreRun) {
			sendAll(t, net, run, sizes)
		})
		label := fmt.Sprintf("case %d", ci)
		rx := run.net.Endpoint("b").Stats().Rx
		if got := len(run.deliveries); uint64(got) != rx.Packets || rx.Packets+rx.AALErrors != uint64(c.nSDU) {
			t.Errorf("%s: %d of %d SDUs delivered, %d counted delivered and %d as AAL errors",
				label, got, c.nSDU, rx.Packets, rx.AALErrors)
		}
		if c.bitErr == 0 && len(run.deliveries) != c.nSDU {
			t.Errorf("%s: clean line delivered %d of %d", label, len(run.deliveries), c.nSDU)
		}
		if line := run.net.Link("ab").Framed.AtoB.Stats(); c.bitErr >= 0.5 &&
			(line.Deframer.B1Errors == 0 || rx.AALErrors == 0) {
			t.Errorf("%s: heavy bit errors lost nothing: B1 errors %d, AAL errors %d",
				label, line.Deframer.B1Errors, rx.AALErrors)
		}
		requireDigest(t, label, run, c.want)
	}
}

// TestFramedLinkValidation pins the builder's rejection of spec shapes the
// framed path cannot model.
func TestFramedLinkValidation(t *testing.T) {
	base := func() NetworkSpec {
		return NetworkSpec{
			Endpoints: []EndpointSpec{{Name: "a"}, {Name: "b"}},
			Links: []LinkSpec{{
				Name: "ab", A: NodeRef{Node: "a"}, B: NodeRef{Node: "b"}, Framed: true,
			}},
		}
	}
	t.Run("switch port", func(t *testing.T) {
		spec := base()
		spec.Switches = []SwitchSpec{{Name: "sw", Ports: 2}}
		spec.Links[0].B = NodeRef{Node: "sw", Port: 0}
		if _, err := NewNetwork(spec); err == nil || !strings.Contains(err.Error(), "two endpoints") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("cell faults on framed", func(t *testing.T) {
		spec := base()
		spec.Links[0].LossProb = 0.1
		if _, err := NewNetwork(spec); err == nil || !strings.Contains(err.Error(), "BitErrProb") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bit errors on cell link", func(t *testing.T) {
		spec := base()
		spec.Links[0].Framed = false
		spec.Links[0].BitErrProb = 1e-3
		if _, err := NewNetwork(spec); err == nil || !strings.Contains(err.Error(), "Framed") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("latency tap over framed", func(t *testing.T) {
		spec := base()
		spec.VCCs = []VCCSpec{{Name: "flow", From: "a", To: "b", Latency: true}}
		if _, err := NewNetwork(spec); err == nil || !strings.Contains(err.Error(), "latency tap") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("framed link built", func(t *testing.T) {
		net, err := NewNetwork(base())
		if err != nil {
			t.Fatal(err)
		}
		l := net.Link("ab")
		if l.Framed == nil || l.Fwd != nil || l.Rev != nil {
			t.Fatalf("framed link handle: %+v", l)
		}
	})
}
