package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"lite/internal/obs"
	"lite/internal/simtime"
)

// tracedRun measures the per-layer metrics. It repeats untraced
// instances for the host baseline, profiles one more, and runs one
// traced instance (obs on, a bench.op root span around every op, and
// domain spans where the workload allows them). The profiled and the
// traced instance measure one window each, which must reproduce the
// untraced first window's virtual results and event count exactly.
func tracedRun(wl *workload, seed uint64, budget time.Duration) (*result, error) {
	rs, err := repeat(wl, seed, budget/2, false)
	if err != nil {
		return nil, err
	}
	var errs []string
	if rs.mismatch > 0 {
		errs = append(errs, fmt.Sprintf("%d of %d repeated instances diverged from the first of their sub-seed", rs.mismatch, rs.measured-wl.seeds))
	}
	base := rs.first.Wins[0]
	prof, err := spawn(wl, subSeed(wl, seed, 0), runOpts{windows: 1, profile: true})
	if err != nil {
		return nil, err
	}
	if !sameWindows(prof, rs.first) {
		errs = append(errs, "the profiled instance diverged from the untraced ones")
	}
	trs, err := spawn(wl, subSeed(wl, seed, 0), runOpts{windows: 1, tracing: true})
	if err != nil {
		return nil, err
	}
	tr := trs.Wins[0]
	if !sameWindows(trs, rs.first) {
		errs = append(errs, fmt.Sprintf("tracing perturbed the run: %d events and %d/%d ok reads/writes traced, %d events and %d/%d untraced",
			tr.Cost.Events, len(tr.Reads), len(tr.Writes), base.Cost.Events, len(base.Reads), len(base.Writes)))
	}
	errs = append(errs, rs.checks...)
	errs = append(errs, trs.Checks...)

	m := trs.Layers
	for k, v := range prof.CPUShares {
		m.set(k, v, "ratio")
	}
	m.set("host.alloc_bytes_per_event", median(rs.allocB), "B/event")
	for name, xs := range rs.setups {
		m.set(name, median(xs), "s")
	}
	m.set("host.gc_cpu_share", median(rs.gc), "ratio")
	m.set("host.allocs_per_event", median(rs.allocs), "1/event")
	m.set("load.issue_lag_max_us", us(base.LagMax), "us")
	m.set("load.backlog_at_close", float64(base.Backlog), "count")
	m.set("host.reference_cpu_s", median(rs.refS), "s")
	m.set("trace.overhead_cpu_s", tr.Cost.normCPU()-rs.cpuPerWindow(), "s")
	fmt.Printf("# traced window: %d ops, %d events, run_cpu_s %.4g traced vs %.4g untraced (median of %d windows)\n",
		tr.Issued, tr.Cost.Events, tr.Cost.normCPU(), rs.cpuPerWindow(), len(rs.cpuS))
	fmt.Printf("# %-30s %14s %-8s %-6s | base | should move | heavy / light\n", "metric", "value", "unit", "better")
	for _, lm := range layerCatalog {
		if _, ok := m[lm.name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", lm.name)
		}
		fmt.Printf("%-32s %14.6g %-8s %-6s | %s | %s | %s / %s\n", lm.name, m[lm.name].Value, lm.unit, lm.better, lm.base, lm.moves, lm.heavy, lm.light)
	}
	for _, e := range errs {
		fmt.Printf("# CHECK FAILED: %s\n", e)
	}
	return &result{
		Correct:   len(errs) == 0 && tr.Bad == 0,
		Attempted: tr.Issued,
		Failed:    tr.failed(),
		Metrics:   m,
	}, nil
}

// tracedLayers computes, inside the traced instance's process, every
// per-layer metric that needs its probes, obs counters or spans; the
// ones the host samples give are left at zero for the parent to fill.
// The error reports op span trees that do not nest.
func tracedLayers(wl *workload, in *instance) (metrics, error) {
	tw := in.wins[0]
	m := metrics{}
	for _, lm := range layerCatalog {
		m.set(lm.name, 0, lm.unit)
	}
	ops := float64(tw.Issued)
	span := tw.End - tw.Open
	snap := tw.snap
	ctr := func(name string) float64 { return float64(snap.Counters[name]) }

	m.set("simtime.events_per_op", share(float64(tw.Cost.Events), ops), "1/op")
	m.set("fabric.uplink_busy_max", maxBusy(tw.p0.uplink, tw.p1.uplink, span), "ratio")
	m.set("fabric.egress_busy_max", maxBusy(tw.p0.egress, tw.p1.egress, span), "ratio")
	if h := snap.Hists["fabric.queue_wait"]; h != nil {
		m.set("fabric.queue_wait_us_per_op", share(us(h.Sum()), ops), "us/op")
	}
	m.set("fabric.dropped", ctr("fabric.dropped"), "count")
	m.set("rnic.rx_busy_max", maxBusy(tw.p0.rx, tw.p1.rx, span), "ratio")
	m.set("rnic.tx_busy_max", maxBusy(tw.p0.tx, tw.p1.tx, span), "ratio")
	m.set("rnic.dma_busy_max", maxBusy(tw.p0.dma, tw.p1.dma, span), "ratio")
	m.set("rnic.atomics_per_get", share(ctr("rnic.atomic.executed"), float64(tw.ReadsIssued)), "1/op")
	m.set("rnic.inline_share", share(ctr("rnic.inline_wqes"), ctr("fabric.msgs")), "ratio")
	keyMiss, keyAll := tw.p1.keyMiss-tw.p0.keyMiss, tw.p1.keyMiss-tw.p0.keyMiss+tw.p1.keyHit-tw.p0.keyHit
	pteMiss, pteAll := tw.p1.pteMiss-tw.p0.pteMiss, tw.p1.pteMiss-tw.p0.pteMiss+tw.p1.pteHit-tw.p0.pteHit
	m.set("rnic.mrkey_miss_ratio", share(float64(keyMiss), float64(keyAll)), "ratio")
	m.set("rnic.pte_miss_ratio", share(float64(pteMiss), float64(pteAll)), "ratio")
	m.set("hostos.crossings_per_op", share(2*ctr("hostos.syscalls")+ctr("hostos.kernel_enters"), ops), "1/op")
	m.set("hostos.server_cpu_busy", share(float64(tw.p1.serverBusy-tw.p0.serverBusy), float64(span)*float64(len(in.r.servers))), "cores")
	m.set("hostos.wait_slept_share", share(ctr("hostos.wait.slept"), ctr("hostos.wait.slept")+ctr("hostos.wait.polled")+ctr("hostos.wait.immediate")), "ratio")
	m.set("lite.rpc.shed_ratio", share(ctr("lite.rpc.shed"), ctr("lite.rpc.served")+ctr("lite.rpc.shed")), "ratio")
	if h := snap.Hists["lite.rpc.queue_depth"]; h != nil {
		m.set("lite.rpc.queue_depth_p99", float64(h.Quantile(0.99)), "count")
	}
	m.set("lite.retry.attempts_per_op", share(ctr("lite.retry.attempts"), ops), "1/op")
	m.set("lite.rpc.served_per_get", share(ctr("lite.rpc.served"), float64(tw.ReadsIssued)), "1/op")
	if in.r.layers != nil {
		in.r.layers(tw, m)
	}
	if !wl.spans {
		fmt.Fprintf(os.Stderr, "perfbench: %s: domain spans are off at 500 nodes (unbounded per-node span slices); span self times read 0\n", wl.name)
		return m, nil
	}
	self, err := selfTimesOf(tw.dom.Spans(), tw.roots, wl == rpcSmall)
	m.set("rnic.self_us_per_op", share(us(self.layer["rnic"]), ops), "us/op")
	m.set("hostos.self_us_per_op", share(us(self.layer["hostos"]), ops), "us/op")
	m.set("lite.check_us_per_op", share(us(self.name["lite.check"]), ops), "us/op")
	m.set("lite.post_us_per_op", share(us(self.name["lite.rpc.post"]), ops), "us/op")
	m.set("lite.wait_us_per_op", share(us(self.name["lite.rpc.wait"]), ops), "us/op")
	fmt.Fprintf(os.Stderr, "perfbench: %s: self times over %d op trees (%.3f us/op in total, %.3f us/op of sibling spans overlapping); layer shares: %s\n",
		wl.name, len(tw.roots), share(us(self.total), ops), share(us(self.overlap), ops), self.describe())
	return m, err
}

// selfTimes sums the self times of every op's span tree by span name
// and by layer (the name's first dot-separated part), and the time
// sibling spans overlap.
type selfTimes struct {
	name, layer map[string]simtime.Time
	total       simtime.Time
	overlap     simtime.Time
}

func (s selfTimes) describe() string {
	names := make([]string, 0, len(s.layer))
	for k := range s.layer {
		names = append(names, k)
	}
	sort.Strings(names)
	var parts []string
	for _, k := range names {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", k, 100*share(float64(s.layer[k]), float64(s.total))))
	}
	return strings.Join(parts, ", ")
}

// selfTimesOf splits each op's root span into exclusive intervals.
// Duration minus children is not a partition here: the program's
// lite.rpc.wait span runs alongside its sibling rnic and fabric spans
// (the client waits while the NIC and the wire work), so that rule
// would count the overlap twice and leave lite.rpc a negative self
// time. Instead every instant of the root belongs to the deepest span
// of the tree covering it; among overlapping siblings, to the one that
// started later, then the one that ends sooner (the NIC work inside a
// wait goes to the NIC). The overlap so resolved is summed in overlap.
// The self times of one op then add up to its root if and only if the
// tree nests: every span lies within its parent. With strict set, an
// op with a span outside its parent, or with no span under the root,
// fails.
func selfTimesOf(spans []obs.SpanView, roots []uint64, strict bool) (selfTimes, error) {
	st := selfTimes{name: map[string]simtime.Time{}, layer: map[string]simtime.Time{}}
	byID := make(map[uint64]int, len(spans))
	kids := make(map[uint64][]int, len(spans))
	for i, v := range spans {
		byID[v.ID] = i
		if v.Parent != 0 {
			kids[v.Parent] = append(kids[v.Parent], i)
		}
	}
	type node struct{ i, depth int }
	// wins reports whether a should own an instant both cover.
	wins := func(a, b node) bool {
		va, vb := spans[a.i], spans[b.i]
		switch {
		case a.depth != b.depth:
			return a.depth > b.depth
		case va.Start != vb.Start:
			return va.Start > vb.Start
		case va.End != vb.End:
			return va.End < vb.End
		}
		return va.ID > vb.ID
	}
	var bad int
	var firstBad string
	var tree []node
	var cuts []simtime.Time
	for _, id := range roots {
		ri, ok := byID[id]
		if !ok {
			return st, fmt.Errorf("op root span %d was not recorded", id)
		}
		root := spans[ri]
		tree = append(tree[:0], node{ri, 0})
		cuts = append(cuts[:0], root.Start, root.End)
		outside := 0
		for k := 0; k < len(tree); k++ {
			v := spans[tree[k].i]
			var kidsDur simtime.Time
			for _, c := range kids[v.ID] {
				cv := spans[c]
				if cv.Start < v.Start || cv.End > v.End {
					outside++
				}
				kidsDur += cv.Dur()
				tree = append(tree, node{c, tree[k].depth + 1})
				cuts = append(cuts, cv.Start, cv.End)
			}
			if kidsDur > 0 {
				st.overlap += kidsDur - covered(spans, kids[v.ID])
			}
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
		var sum simtime.Time
		for c := 0; c+1 < len(cuts); c++ {
			a, b := cuts[c], cuts[c+1]
			if a == b || a < root.Start || b > root.End {
				continue
			}
			best := -1
			for k, n := range tree {
				v := spans[n.i]
				if v.Start <= a && v.End >= b && (best < 0 || wins(n, tree[best])) {
					best = k
				}
			}
			v := spans[tree[best].i]
			st.name[v.Name] += b - a
			layer, _, _ := strings.Cut(v.Name, ".")
			st.layer[layer] += b - a
			sum += b - a
		}
		st.total += root.Dur()
		if strict && (sum != root.Dur() || outside > 0 || len(tree) < 2) {
			bad++
			if firstBad == "" {
				firstBad = fmt.Sprintf("op span %d: self times sum to %v of %v over %d spans, %d spans outside their parent",
					id, sum, root.Dur(), len(tree), outside)
			}
		}
	}
	if bad > 0 {
		return st, fmt.Errorf("%d of %d op span trees do not nest (%s)", bad, len(roots), firstBad)
	}
	return st, nil
}

// covered is the length of the union of the spans' intervals.
func covered(spans []obs.SpanView, idx []int) simtime.Time {
	iv := make([][2]simtime.Time, len(idx))
	for k, i := range idx {
		iv[k] = [2]simtime.Time{spans[i].Start, spans[i].End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end simtime.Time
	for k, x := range iv {
		if k == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// switchFuncs are the runtime's goroutine park, wake, schedule and
// channel functions: the cost of running every simulated process on
// its own goroutine.
var switchFuncs = []string{"runtime.gopark", "runtime.goready", "runtime.mcall", "runtime.schedule",
	"runtime.park_m", "runtime.findRunnable", "runtime.execute", "runtime.gogo", "runtime.chansend",
	"runtime.chanrecv", "runtime.send", "runtime.recv", "runtime.ready", "runtime.casgstatus",
	"runtime.runqput", "runtime.runqget", "runtime.runqgrab", "runtime.wakep", "runtime.goexit",
	"runtime.newproc", "runtime.gfget", "runtime.gfput", "runtime.acquireSudog", "runtime.releaseSudog",
	"runtime.lock2", "runtime.unlock2", "runtime.selectgo", "runtime.resetspinning", "runtime.stealWork"}

// cpuLayer maps a profiled function to its host.cpu metric ("" for
// none): by package, except for the runtime's copying and scheduling.
func cpuLayer(fn string) string {
	switch {
	case strings.HasPrefix(fn, "runtime.memmove"), strings.HasPrefix(fn, "runtime.memclr"):
		return "host.cpu.memmove"
	case strings.HasPrefix(fn, "lite/internal/simtime."):
		return "host.cpu.simtime"
	case strings.HasPrefix(fn, "lite/internal/fabric."):
		return "host.cpu.fabric"
	case strings.HasPrefix(fn, "lite/internal/rnic."), strings.HasPrefix(fn, "lite/internal/verbs."):
		return "host.cpu.rnic"
	case strings.HasPrefix(fn, "lite/internal/hostmem."):
		return "host.cpu.hostmem"
	case strings.HasPrefix(fn, "lite/internal/lite."):
		return "host.cpu.lite"
	}
	for _, s := range switchFuncs {
		if strings.HasPrefix(fn, s) {
			return "host.cpu.goroutine_switch"
		}
	}
	return ""
}

// profileShares reads a CPU profile with the toolchain's pprof and
// returns each host.cpu layer's share of the flat samples.
func profileShares(prof []byte) (map[string]float64, error) {
	dir, err := os.MkdirTemp(benchDir(), "pprof-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "cpu.pprof")
	if err := os.WriteFile(path, prof, 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+dir, "HOME="+dir)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	rows := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 5 && f[0] == "flat" {
			rows = true
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		flat, err := parseSeconds(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		total += flat
		if l := cpuLayer(strings.Join(f[5:], " ")); l != "" {
			shares[l] += flat
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in the profile")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// parseSeconds reads pprof's flat column ("1.23s", "40ms", "0").
func parseSeconds(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		v, err2 := strconv.ParseFloat(s, 64)
		if err2 != nil {
			return 0, err
		}
		return v, nil
	}
	return d.Seconds(), nil
}

// benchDir is where the benchmark may write scratch files: the build
// directory the wrapper names, else the working directory.
func benchDir() string {
	if d := os.Getenv("PERFBENCH_SCRATCH"); d != "" {
		return d
	}
	return "."
}
