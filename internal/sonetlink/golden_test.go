package sonetlink

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/sonet"
	"repro/internal/tm"
	"repro/internal/trace"
)

// sonetRun captures everything a golden test pins on the SONET path: each
// delivered SDU with its delivery time, the link and interface counters,
// and the flight recorder's matched spans in sorted order.
type sonetRun struct {
	deliveries []string
	metrics    string
	spans      []trace.Span
	unmatched  int
}

// runDigest is the SHA-256 (hex) of each part of a sonetRun.
type runDigest struct {
	deliveries, metrics, spans string
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func (r sonetRun) digest() runDigest {
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
func requireDigest(t *testing.T, label string, run sonetRun, want runDigest) {
	t.Helper()
	if got := run.digest(); got != want {
		t.Errorf("%s: run differs from the pinned golden output; got\n\t{%q, %q, %q}",
			label, got.deliveries, got.metrics, got.spans)
	}
}

// goldenWorld is a pair of interfaces on one registry and recorder, joined
// by a SONET link at rate.
type goldenWorld struct {
	k    *sim.Kernel
	reg  *metrics.Registry
	rec  *trace.Recorder
	a, b *nic.Interface
	link *Link
	run  sonetRun
}

func newGoldenWorld(t *testing.T, rate sonet.Rate) *goldenWorld {
	t.Helper()
	w := &goldenWorld{k: sim.NewKernel(), reg: metrics.NewRegistry()}
	w.rec = trace.NewRecorder(w.k, 1<<16)
	mk := func(name string) *nic.Interface {
		cfg := nic.DefaultConfig(name)
		cfg.PayloadRate = rate.PayloadRate()
		cfg.RxFifoDepth = 128
		cfg.Metrics = w.reg
		iface, err := nic.New(w.k, cfg, host.New(w.k, host.DefaultConfig()), bus.New(w.k, bus.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		return iface
	}
	w.a, w.b = mk("a"), mk("b")
	link, err := Connect(w.k, Config{
		Rate: rate, Delay: 10_000, Seed: 3,
		Metrics: w.reg, Recorder: w.rec,
	}, w.a, w.b)
	if err != nil {
		t.Fatal(err)
	}
	w.link = link
	w.b.OnReceive(func(d nic.Delivered) {
		w.run.deliveries = append(w.run.deliveries,
			fmt.Sprintf("t=%d vc=%v len=%d head=%x", int64(w.k.Now()), d.VC, len(d.SDU), d.SDU[:4]))
	})
	w.a.OpenVC(vc())
	w.b.OpenVC(vc())
	return w
}

// finish runs the world to completion and collects the registry and spans.
func (w *goldenWorld) finish(t *testing.T) sonetRun {
	t.Helper()
	w.k.Run()
	var sb bytes.Buffer
	if err := w.reg.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	w.run.metrics = sb.String()
	spans, unmatched := w.rec.Spans()
	trace.SortSpans(spans)
	w.run.spans = spans
	w.run.unmatched = unmatched
	return w.run
}

// TestSonetGolden pins the per-cell receive path on a 12-SDU workload at
// both SONET rates: every SDU arrives, at the pinned nanoseconds, with the
// pinned registry and spans.
func TestSonetGolden(t *testing.T) {
	for _, c := range []struct {
		rate sonet.Rate
		want runDigest
	}{
		{sonet.STS3c, runDigest{
			"42befa64eca5ab47207aa538531d818d19bb4ad8320f7713b49809b9c66dc070",
			"22bf2d1bf6b176cea2b131605303284dbe79d62862095859fed5f96a80adc89a",
			"a19234b8fc2ae20388e7c8e0d2edb2b957136fcfae50b426bdf5c5240132edd7"}},
		{sonet.STS12c, runDigest{
			"b575165aec92c52c5f3e1013ab754c40843c0a257e4be6d528a22261ab45c75f",
			"6aa6834f18c5825482ec5b7e27d7eb908be7890b542179cc6bef40ea8e8ccff9",
			"d51141c6247285e7a95fb15a633ac47619ae2697a11944293495ae5ef556312b"}},
	} {
		w := newGoldenWorld(t, c.rate)
		for i := 0; i < 12; i++ {
			if err := w.a.Send(vc(), pkt(700+331*i), nil); err != nil {
				t.Fatal(err)
			}
		}
		run := w.finish(t)
		if len(run.deliveries) != 12 {
			t.Fatalf("%v: delivered %d of 12", c.rate, len(run.deliveries))
		}
		requireDigest(t, c.rate.String(), run, c.want)
	}
}

// TestSonetEFCIMarkedGolden pins an ABR connection whose data cells are all
// EFCI-marked on the way into the framer, so the receive path carries
// congested user cells in one direction and CI-bearing backward RM cells in
// the other. Every SDU arrives, the congestion feedback pulls the source's
// ACR inside (0, ICR), and deliveries, registry (including the NIC's abr
// counters), spans and the final ACR match the pinned run.
func TestSonetEFCIMarkedGolden(t *testing.T) {
	const icr = 50_000
	w := newGoldenWorld(t, sonet.STS3c)
	if err := w.a.SetABR(vc(), tm.ABRParams{PCR: 100_000, ICR: icr, Nrm: 32}); err != nil {
		t.Fatal(err)
	}
	w.a.AttachSink(&efciMarker{dst: w.link.AtoB})
	for i := 0; i < 8; i++ {
		if err := w.a.Send(vc(), pkt(2000+777*i), nil); err != nil {
			t.Fatal(err)
		}
	}
	run := w.finish(t)
	if len(run.deliveries) != 8 {
		t.Fatalf("delivered %d of 8", len(run.deliveries))
	}
	acr, _ := w.a.ACR(vc())
	if acr >= icr || acr <= 0 {
		t.Fatalf("ACR = %.0f, want inside (0, ICR): CI feedback missing", acr)
	}
	if pinned := 9337.34038046548; acr != pinned {
		t.Errorf("ACR = %v, pinned %v", acr, pinned)
	}
	requireDigest(t, "efci", run, runDigest{
		"822d008e98bd155effedecb2b40946f7ecef4ea0a601452d77fe1e1758877d28",
		"3f6c9cb75d0a991d3229030562f08a87e3d5f4bdd2fcca050669f2e62d321024",
		"7c625b82521d4a5475fa09738ceb711ea6b37ffb2945bd1620b4e5588aff7798"})
}
