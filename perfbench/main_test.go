package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/sim"
)

// shortHorizon is each workload's horizon for the quick reproduction
// tests: long enough to cross every layer the workload uses.
var shortHorizon = map[string]sim.Time{
	"lan_sonet": 10 * sim.Millisecond,
	"wan_tcp":   60 * sim.Millisecond,
	"islands":   5 * sim.Millisecond,
}

func inputBytes(t *testing.T, in *inputs) []byte {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestInputsFollowSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := inputBytes(t, w.gen(7)), inputBytes(t, w.gen(7)), inputBytes(t, w.gen(8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w.name)
		}
	}
}

func mustBatch(t *testing.T, w *workload, in *inputs, o buildOpts) batch {
	t.Helper()
	bt, err := runBatch(w, in, o)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if bt.out.failed != 0 || bt.out.cells == 0 || bt.out.attempted == 0 {
		t.Fatalf("%s: %d of %d SDUs failed, %d cells delivered", w.name, bt.out.failed, bt.out.attempted, bt.out.cells)
	}
	return bt
}

// TestFingerprintReproduces checks on a short horizon that a workload's
// simulated outcome is the same on every build: rebuilt, traced (door shims
// and sliced running must not change what is computed) and, for a
// partitioned workload, built on the other partition count.
func TestFingerprintReproduces(t *testing.T) {
	for _, w := range workloads {
		in := w.gen(3)
		h := shortHorizon[w.name]
		want := mustBatch(t, w, in, buildOpts{horizon: h}).out.fingerprint
		others := []buildOpts{{horizon: h}, {horizon: h, traced: true, keep: 100}}
		if w.shards > 0 {
			others = append(others, buildOpts{horizon: h, shards: 1}, buildOpts{horizon: h, shards: 2, traced: true, keep: 100})
		}
		for _, o := range others {
			if got := mustBatch(t, w, in, o).out.fingerprint; got != want {
				t.Errorf("%s %+v: fingerprint %s, want %s", w.name, o, got, want)
			}
		}
	}
}

func TestReferenceFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("full-horizon batches")
	}
	for _, w := range workloads {
		bt := mustBatch(t, w, w.gen(defaultSeed), buildOpts{})
		if want := referenceFingerprints[w.name]; bt.out.fingerprint != want {
			t.Errorf("%s: fingerprint %s, reference %s", w.name, bt.out.fingerprint, want)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func checkMetrics(t *testing.T, w string, res result, want []struct{ Name, Unit string }, nonZero ...string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 {
		t.Errorf("%s: correct=%v failed=%d", w, res.Correct, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", w, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", w, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", w, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: %s = %v", w, m.Name, got.Value)
		}
	}
	for _, n := range nonZero {
		if v := res.Metrics[n].Value; v <= 0 {
			t.Errorf("%s: %s = %v, want > 0", w, n, v)
		}
	}
}

func TestEndToEndMetrics(t *testing.T) {
	spec := readSpec(t)
	for _, ws := range spec.Workloads {
		w := workloadByName(ws.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %s", ws.Name)
		}
		res := endToEnd(w, w.gen(5), 0.2)
		var names []string
		for _, m := range spec.EndToEnd {
			names = append(names, m.Name)
		}
		checkMetrics(t, w.name, res, spec.EndToEnd, names...)
	}
}

// ladderUsed names the ladder stages each workload's cells cross, which
// must read non-zero.
var ladderUsed = map[string][]string{
	"lan_sonet": {"atm.codec_ns_per_cell", "crc.hec_ns_per_cell", "crc.crc32_ns_per_cell", "aal.seg_ns_per_cell",
		"aal.reasm_ns_per_cell", "sonet.frame_ns_per_cell", "sonet.deframe_ns_per_cell", "nic.tx_ns_per_cell",
		"nic.rx_ns_per_cell", "sim.post_dispatch_ns", "sonetlink.door_ns_per_cell"},
	"wan_tcp": {"crc.crc32_ns_per_cell", "aal.seg_ns_per_cell", "aal.reasm_ns_per_cell", "nic.tx_ns_per_cell",
		"nic.rx_ns_per_cell", "phy.transit_ns_per_cell", "netsim.switch_ns_per_cell", "sim.post_dispatch_ns",
		"phy.door_ns_per_cell", "netsim.door_ns_per_cell", "nic.door_ns_per_cell"},
	"islands": {"crc.crc32_ns_per_cell", "aal.seg_ns_per_cell", "aal.reasm_ns_per_cell", "nic.tx_ns_per_cell",
		"nic.rx_ns_per_cell", "phy.transit_ns_per_cell", "netsim.switch_ns_per_cell", "tm.gcra_ns_per_cell",
		"sim.post_dispatch_ns", "phy.door_ns_per_cell", "netsim.door_ns_per_cell", "nic.door_ns_per_cell",
		"core.send_door_ns_per_sdu"},
}

func TestPerLayerMetricsAndTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs and the ladder take seconds")
	}
	spec := readSpec(t)
	pending := map[string]float64{}
	for _, ws := range spec.Workloads {
		w := workloadByName(ws.Name)
		dir := t.TempDir()
		res, err := perLayer(w, w.gen(5), 1.5, dir)
		if err != nil {
			t.Fatal(err)
		}
		nonZero := append([]string{"sim.events_per_cell", "sim.ns_per_event", "sim.pending_hw", "ladder.sum_ns_per_cell"},
			ladderUsed[w.name]...)
		checkMetrics(t, w.name, res, spec.PerLayer, nonZero...)
		pending[w.name] = res.Metrics["sim.pending_hw"].Value

		f, err := os.Open(filepath.Join(dir, w.name+"-seed5.spans.tsv"))
		if err != nil {
			t.Fatal(err)
		}
		spans, err := readSpans(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		checkSpans(t, w.name, spans)
		gz, err := os.ReadFile(filepath.Join(dir, w.name+"-seed5.cpu.pprof"))
		if err != nil {
			t.Fatal(err)
		}
		if st, _, err := stacks(gz); err != nil {
			t.Errorf("%s: profile: %v", w.name, err)
		} else if len(st) == 0 {
			t.Errorf("%s: profile has no samples", w.name)
		}
	}
	// The wan_tcp fibres hold thousands of cells in flight; the LAN holds
	// a few dozen events at most.
	if pending["wan_tcp"] < 1000 || pending["lan_sonet"]*20 > pending["wan_tcp"] {
		t.Errorf("pending high-water: wan_tcp %v, lan_sonet %v", pending["wan_tcp"], pending["lan_sonet"])
	}
}

// checkSpans holds a parsed trace to its structure: unique ids, ends after
// starts, and every door span inside its parent slice.
func checkSpans(t *testing.T, w string, spans []span) {
	t.Helper()
	byID := map[int64]span{}
	doors := 0
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("%s: span id %d repeated", w, s.ID)
		}
		if s.End < s.Start {
			t.Fatalf("%s: span %d ends before it starts", w, s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Door == doorSlice {
			continue
		}
		doors++
		p, ok := byID[s.Parent]
		if !ok {
			continue // parent fell outside the kept prefix
		}
		if s.Start < p.Start || s.End > p.End {
			t.Fatalf("%s: %s span %d lies outside parent %d", w, doorNames[s.Door], s.ID, p.ID)
		}
	}
	if doors == 0 {
		t.Errorf("%s: trace holds no door spans", w)
	}
}

func TestSpansRoundTrip(t *testing.T) {
	ts := newTraceSet([]*sim.Kernel{sim.NewKernel()}, 16)
	k := ts.order[0]
	ts.runSliced(func(sim.Time) {
		k.begin(doorRecv)
		k.begin(doorSend)
		k.end(7)
		k.end(9)
	}, 0, 3, 1, nil)
	var buf bytes.Buffer
	if err := ts.writeSpans(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := readSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var want []span
	want = append(want, ts.slicer.kept...)
	want = append(want, k.kept...)
	if len(spans) != len(want) || len(spans) != 9 {
		t.Fatalf("read %d spans, wrote %d", len(spans), len(want))
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Errorf("span %d: read %+v, wrote %+v", i, spans[i], want[i])
		}
	}
	st, _ := ts.total()
	if st[doorRecv].SelfNs > st[doorRecv].TotalNs || st[doorSend].Count != 3 {
		t.Errorf("aggregates %+v", st)
	}
}

func TestModuleAttribution(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/atm.(*Pool).Get", "repro/internal/nic.(*transmitter).runCell"}, "atm"},
		{[]string{"repro/internal/sim.(*Kernel).RunUntil", "main.main"}, "sim"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"bytes.Equal", "main.(*stream).receive"}, "other"},
	}
	for _, c := range cases {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	w := lanSonet
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		mustBatch(t, w, w.gen(1), buildOpts{horizon: shortHorizon[w.name]})
	}
	pprof.StopCPUProfile()
	by := map[string]int64{}
	if err := addModuleTime(by, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if by["sim"] == 0 && by["nic"] == 0 {
		t.Errorf("no CPU time attributed to sim or nic: %v", by)
	}
}
