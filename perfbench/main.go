// Command perfbench is the simulator's benchmark. It runs one named
// workload at one seed for a fixed number of host seconds, as a sequence of
// fixed-size batches (each a full set-up, run to a simulated horizon and
// check), verifies every delivered SDU and the simulated outcome's
// fingerprint, and prints every metric by name with its unit. The last
// line of standard output is one JSON object.
//
//	perfbench --workload lan_sonet --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from an untraced pass, a traced pass and the layer
// ladder. See README.md for the workloads and how to read the trace.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/sim"
)

const (
	defaultSeed = 1
	keepSpans   = 100_000 // spans per tracer kept for the trace file, first traced batch only
	minBatches  = 3
	// segments is how many equal stretches of simulated time a batch runs
	// in, each timed on its own (see throughput).
	segments = 160
)

// referenceFingerprints pins each workload's simulated outcome at the
// default seed and horizon. A change to the simulator that alters what it
// computes changes these; a speed-up must not.
var referenceFingerprints = map[string]string{
	"lan_sonet": "5fa64d3b6a461f34",
	"wan_tcp":   "2b587a1de3d8f64b",
	"islands":   "fb4517b6de37272c",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wname := flag.String("workload", "", "workload: lan_sonet, wan_tcp or islands")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 10, "host seconds to measure")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (untraced pass, traced pass, ladder)")
	outDir := flag.String("out", ".bench_build/perfbench-out", "directory for trace and profile files")
	flag.Parse()
	w := workloadByName(*wname)
	if w == nil || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload lan_sonet|wan_tcp|islands, --trace 0|1 and --seconds > 0")
		os.Exit(2)
	}
	in := w.gen(*seed)
	var res result
	var err error
	if *traced == 0 {
		res = endToEnd(w, in, *seconds)
	} else {
		res, err = perLayer(w, in, *seconds, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// batch is one fixed-size unit of work: set-up, run to the horizon, check.
type batch struct {
	setup, run  float64   // host seconds
	seg         []float64 // host seconds per segment of the run phase
	mallocs     uint64
	allocBytes  uint64
	retainedMiB float64
	cpu         float64 // process CPU seconds during the run phase
	gcCPU, cpuT float64 // runtime/metrics GC and total CPU seconds during the run
	pendingHW   int
	gets, fresh uint64
	idle        uint64
	vccs        int
	out         outcome
	trace       *traceSet
	profile     []byte // gzipped CPU profile of the run phase
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPU() (gc, total float64) {
	metrics.Read(cpuSamples)
	return cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
}

func rusageCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runBatch builds, runs and checks one batch. A panic inside the simulator
// is returned as an error.
func runBatch(w *workload, in *inputs, o buildOpts) (bt batch, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s batch panicked: %v", w.name, r)
		}
	}()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	base := m0.HeapAlloc

	t0 := time.Now()
	b, err := w.build(in, o)
	if err != nil {
		return bt, err
	}
	defer b.net.Close()
	bt.setup = time.Since(t0).Seconds()

	runtime.ReadMemStats(&m0)
	gc0, tot0 := readCPU()
	cpu0 := rusageCPU()
	var prof bytes.Buffer
	if o.profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return bt, err
		}
	}
	t1 := time.Now()
	from := b.net.Now()
	bt.seg = make([]float64, segments)
	for i := range bt.seg {
		ts := time.Now()
		to := from + (b.horizon-from)*sim.Time(i+1)/segments
		if b.trace != nil {
			bt.pendingHW = max(bt.pendingHW, b.trace.runSliced(func(t sim.Time) { b.net.RunUntil(t) }, b.net.Now(), to, b.slice, b.kernels))
		} else {
			b.net.RunUntil(to)
		}
		bt.seg[i] = time.Since(ts).Seconds()
	}
	bt.run = time.Since(t1).Seconds()
	bt.cpu = rusageCPU() - cpu0
	if o.profile {
		pprof.StopCPUProfile()
		bt.profile = prof.Bytes()
	}
	runtime.ReadMemStats(&m1)
	bt.mallocs = m1.Mallocs - m0.Mallocs
	bt.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	gc1, tot1 := readCPU()
	bt.gcCPU, bt.cpuT = gc1-gc0, tot1-tot0

	runtime.GC()
	runtime.ReadMemStats(&m1)
	bt.retainedMiB = (float64(m1.HeapAlloc) - float64(base)) / (1 << 20)
	bt.out = b.outcome()
	bt.gets, bt.fresh, bt.idle = b.poolStats()
	bt.vccs = len(b.streams) + len(b.flows)
	bt.trace = b.trace
	runtime.KeepAlive(b)
	return bt, nil
}

// checker decides each batch's correctness against the reference (default
// seed) or the first batch (any other seed).
type checker struct {
	w         *workload
	want      string
	attempted uint64
	failed    uint64
	problems  []string
}

func newChecker(w *workload, seed uint64) *checker {
	c := &checker{w: w}
	if seed == defaultSeed {
		c.want = referenceFingerprints[w.name]
	}
	return c
}

func (c *checker) add(bt batch, err error) bool {
	if err != nil {
		c.problems = append(c.problems, err.Error())
		c.failed++
		c.attempted++
		return false
	}
	c.attempted += bt.out.attempted
	c.failed += bt.out.failed
	if c.want == "" {
		c.want = bt.out.fingerprint
	}
	if bt.out.fingerprint != c.want {
		c.problems = append(c.problems, fmt.Sprintf("fingerprint %s, want %s", bt.out.fingerprint, c.want))
		c.failed += bt.out.attempted - bt.out.failed
		return false
	}
	if bt.out.cells == 0 {
		c.problems = append(c.problems, "no cells delivered")
		return false
	}
	return true
}

func (c *checker) result(m map[string]metric) result {
	for _, p := range c.problems {
		fmt.Fprintln(os.Stderr, "perfbench:", c.w.name+":", p)
	}
	return result{Correct: len(c.problems) == 0 && c.failed == 0, Attempted: max(c.attempted, 1), Failed: c.failed, Metrics: m}
}

// batches runs batches until the budget is spent (at least minBatches).
func batches(w *workload, in *inputs, o buildOpts, budget time.Duration, c *checker) []batch {
	var out []batch
	start := time.Now()
	for len(out) < minBatches || time.Since(start) < budget {
		bt, err := runBatch(w, in, o)
		if !c.add(bt, err) {
			break
		}
		out = append(out, bt)
	}
	return out
}

// crossCheck builds a partitioned workload on one kernel, or a serial one
// on two partitions, and holds its fingerprint to the measured build's.
func crossCheck(w *workload, in *inputs, c *checker) {
	if w.shards == 0 {
		return
	}
	other := 1
	if w.shards == 1 {
		other = 2
	}
	bt, err := runBatch(w, in, buildOpts{shards: other})
	if err == nil && bt.out.fingerprint != c.want {
		err = fmt.Errorf("%d-partition fingerprint %s differs from %d-partition %s", other, bt.out.fingerprint, w.shards, c.want)
	}
	if err != nil {
		c.problems = append(c.problems, err.Error())
		c.failed += bt.out.attempted
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(bs []batch, f func(batch) float64) float64 {
	xs := make([]float64, len(bs))
	for i, b := range bs {
		xs[i] = f(b)
	}
	return median(xs)
}

// throughput is cells per host second of a batch, taking each segment of
// the batch at the fastest it ran over the run's batches. Every batch does
// the same simulated work (the fingerprints check it), so segment i is the
// same work in each. On a shared host a neighbour slows the simulator for a
// few milliseconds at a time and only ever slows it; the fastest time of
// each segment (0.2-1 ms of host time) tracks the simulator's own cost and
// spreads less from run to run than the median batch or the best whole
// batch does (README.md, "Why the fastest segments").
func throughput(bs []batch) float64 {
	var t float64
	for i := 0; i < segments; i++ {
		fastest := math.Inf(1)
		for _, b := range bs {
			fastest = min(fastest, b.seg[i])
		}
		t += fastest
	}
	return float64(bs[0].out.cells) / t
}

// endToEnd measures the user-visible metrics with tracing off. One warm-up
// batch runs first and is checked but not timed.
func endToEnd(w *workload, in *inputs, seconds float64) result {
	c := newChecker(w, in.Seed)
	if !c.add(runBatch(w, in, buildOpts{})) {
		return c.result(nil)
	}
	bs := batches(w, in, buildOpts{}, time.Duration(seconds*float64(time.Second)), c)
	crossCheck(w, in, c)
	if len(bs) == 0 {
		return c.result(nil)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d batches of %d cells, %.3f s run each (median), fingerprint %s\n",
		w.name, in.Seed, len(bs), bs[0].out.cells, medianOf(bs, func(b batch) float64 { return b.run }), c.want)
	perCell := func(f func(batch) uint64) float64 {
		return medianOf(bs, func(b batch) float64 { return float64(f(b)) / float64(b.out.cells) })
	}
	m := map[string]metric{
		"setup_s":              {medianOf(bs, func(b batch) float64 { return b.setup }), "s"},
		"cells_per_s":          {throughput(bs), "cells/s"},
		"allocs_per_cell":      {perCell(func(b batch) uint64 { return b.mallocs }), "allocs"},
		"alloc_bytes_per_cell": {perCell(func(b batch) uint64 { return b.allocBytes }), "B"},
		"retained_heap_mb":     {medianOf(bs, func(b batch) float64 { return b.retainedMiB }), "MiB"},
	}
	res := c.result(m)
	// error_rate is printed with the metrics but carried in the JSON as
	// attempted/failed: it is 0 on a correct run, and a metric that reads
	// 0 has no spread to bound.
	fmt.Printf("%-34s %14.6g %s\n", "error_rate", float64(res.Failed)/float64(res.Attempted), "fraction")
	return res
}

// perLayer alternates untraced batches with traced, CPU-profiled ones for
// three quarters of the budget, so both see the same host conditions, then
// runs the ladder, and reports every per-layer metric. Trace spans and the
// CPU profile of the first traced batch are written under outDir.
func perLayer(w *workload, in *inputs, seconds float64, outDir string) (result, error) {
	budget := time.Duration(seconds * float64(time.Second))
	c := newChecker(w, in.Seed)
	if !c.add(runBatch(w, in, buildOpts{})) {
		return c.result(nil), nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, in.Seed))
	var plain, traced []batch
	cpuNs := map[string]int64{}
	start := time.Now()
	for len(traced) < minBatches || time.Since(start) < budget*3/4 {
		p, err := runBatch(w, in, buildOpts{})
		if !c.add(p, err) {
			break
		}
		keep := 0
		if len(traced) == 0 {
			keep = keepSpans
		}
		t, err := runBatch(w, in, buildOpts{traced: true, profile: true, keep: keep})
		if !c.add(t, err) {
			break
		}
		if err := addModuleTime(cpuNs, t.profile); err != nil {
			return result{}, fmt.Errorf("reading CPU profile: %w", err)
		}
		if len(traced) == 0 {
			// Write the first traced batch out now and drop its spans, so
			// they do not swell the live heap the later batches run with.
			if err := writeSpansFile(stem+".spans.tsv", t.trace); err != nil {
				return result{}, err
			}
			if err := os.WriteFile(stem+".cpu.pprof", t.profile, 0o644); err != nil {
				return result{}, err
			}
			t.trace.dropSpans()
		}
		t.profile = nil
		plain, traced = append(plain, p), append(traced, t)
	}
	crossCheck(w, in, c)
	rungs := runLadder(w, in, budget*25/100)
	if len(plain) == 0 || len(traced) == 0 {
		return c.result(nil), nil
	}
	fracs := fractions(cpuNs)
	return c.result(layerMetrics(w, plain, traced, rungs, fracs)), nil
}

// modules are the layers whose CPU-profile share is reported.
var modules = []string{"aal", "atm", "bufmgr", "bufpool", "bus", "core", "crc", "engine", "fifo", "host",
	"ip", "metrics", "netsim", "nic", "oam", "phy", "sim", "sonet", "sonetlink", "tcp", "tm", "trace",
	"vclookup", "runtime", "other"}

func layerMetrics(w *workload, plain, traced []batch, rungs []rung, fracs map[string]float64) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	cps := throughput(plain)
	out := plain[0].out
	cells := float64(out.cells)

	put("sim.events_per_cell", "events", float64(out.events)/cells)
	put("sim.ns_per_event", "ns", medianOf(plain, func(b batch) float64 { return b.run * 1e9 / float64(b.out.events) }))
	put("sim.group.cpu_per_wall", "ratio", medianOf(plain, func(b batch) float64 { return b.cpu / b.run }))
	var gcCPU, cpuT float64
	for _, b := range plain {
		gcCPU, cpuT = gcCPU+b.gcCPU, cpuT+b.cpuT
	}
	put("runtime.gc_cpu_frac", "fraction", gcCPU/max(cpuT, 1e-9))
	put("atm.pool_fresh_frac", "fraction", float64(plain[0].fresh)/float64(max(plain[0].gets, 1)))
	put("atm.pool_idle_cells", "cells", float64(plain[0].idle))
	put("core.setup_ns_per_vcc", "ns", medianOf(plain, func(b batch) float64 { return b.setup * 1e9 / float64(b.vccs) }))

	// Traced pass: door self times per crossing, the kernel's self time per
	// delivered cell, the pending-event high-water mark and the overhead.
	var st [nDoors]doorStats
	var slices, doorTop int64
	var tcells float64
	hw := 0
	for _, b := range traced {
		s, top := b.trace.total()
		for d := range st {
			st[d].Count += s[d].Count
			st[d].TotalNs += s[d].TotalNs
			st[d].SelfNs += s[d].SelfNs
		}
		slices += s[doorSlice].TotalNs * int64(len(b.trace.order))
		doorTop += top
		tcells += float64(b.out.cells)
		hw = max(hw, b.pendingHW)
	}
	perCrossing := func(d door) float64 {
		if st[d].Count == 0 {
			return 0
		}
		return float64(st[d].SelfNs) / float64(st[d].Count)
	}
	put("sim.pending_hw", "events", float64(hw))
	put("sim.slice_self_ns_per_cell", "ns", float64(slices-doorTop)/tcells)
	put("core.send_door_ns_per_sdu", "ns", perCrossing(doorSend))
	put("phy.door_ns_per_cell", "ns", perCrossing(doorPhy))
	put("netsim.door_ns_per_cell", "ns", perCrossing(doorSwitch))
	put("nic.door_ns_per_cell", "ns", perCrossing(doorNIC))
	put("sonetlink.door_ns_per_cell", "ns", perCrossing(doorSonet))
	put("app.receive_ns_per_sdu", "ns", perCrossing(doorRecv))
	put("trace.overhead_frac", "fraction", 1-throughput(traced)/cps)

	// Ladder, and its reconciliation with the untraced end-to-end cost.
	sh := shapeOf(w.name)
	byName := map[string]rung{}
	for _, r := range rungs {
		byName[r.name] = r
		if r.name == "sim.post_dispatch" {
			put("sim.post_dispatch_ns", "ns", r.nsPerCell)
			put("sim.post_dispatch_allocs", "allocs", r.allocsPerCell)
			continue
		}
		put(r.name+"_ns_per_cell", "ns", r.nsPerCell)
		put(r.name+"_allocs_per_cell", "allocs", r.allocsPerCell)
	}
	put("aal.allocs_per_cell", "allocs", byName["aal.seg"].allocsPerCell+byName["aal.reasm"].allocsPerCell)
	sum := byName["nic.tx"].nsPerCell + byName["nic.rx"].nsPerCell +
		float64(sh.phyHops)*byName["phy.transit"].nsPerCell +
		float64(sh.switchHops)*byName["netsim.switch"].nsPerCell
	if sh.framed {
		sum += byName["sonet.frame"].nsPerCell + byName["sonet.deframe"].nsPerCell
	}
	put("ladder.sum_ns_per_cell", "ns", sum)
	put("ladder.unattributed_ns_per_cell", "ns", 1e9/cps-sum)

	for _, mod := range modules {
		put(mod+".self_frac", "fraction", fracs[mod])
	}
	return m
}
