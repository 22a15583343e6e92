// Command perfbench is the repository's benchmark: it drives open-loop
// workloads through the public APIs of cluster, lite, apps/kvstore,
// tenant and load, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as one JSON object on the last line
// of standard output.
//
// Two kinds of end-to-end metric come out of one run:
//   - virtual-time metrics describe the simulated LITE (latency
//     percentiles, goodput, the saturation knee). They are a pure
//     function of the seed and repeat bit for bit;
//   - host metrics describe what the simulator costs to run (set-up
//     seconds, CPU seconds and events per CPU second in a measured
//     window, peak RSS). Each instance runs in a fresh process and
//     measures several short windows back to back; the CPU figures are
//     medians over all the run's windows, set-up time the median
//     set-up, each taken at the speed of a fixed reference workload run
//     beside it (see reference.go).
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload rpc-small --seed 1 --seconds 32 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// gomaxprocs is pinned so host CPU figures are comparable between runs
// and machines: the simulator runs one process at a time, and a second
// P only adds cross-thread handoffs to the CPU bill.
const gomaxprocs = 1

// minSetups is how many set-ups a run times at the least, when set-up
// alone takes at most 1/setupShare of the budget.
const (
	minSetups  = 41
	setupShare = 8
)

// workload is one traffic mix.
type workload struct {
	name    string
	nominal float64 // offered rate, ops per virtual microsecond
	ops     int     // ops in one measured window
	// perInstance is how many windows an instance measures back to
	// back after one boot: each is a host-cost sample, so a boot that
	// costs seconds is paid once for several of them.
	perInstance int
	// seeds is how many distinct sub-seeds one run measures. The
	// windows of their instances are pooled for the virtual-time
	// metrics; later instances repeat a sub-seed and must reproduce it.
	seeds int
	knee  kneeSpec
	// spans turns on domain span tracing in the traced run; the
	// per-node span slices are unbounded, so the 500-node workload
	// relies on counters and probes instead.
	spans bool
	build func(seed uint64) (*rig, error)
}

var workloads = []*workload{rpcSmall, kvMixed, clos500}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: rpc-small, kv-mixed or clos500")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 32, "host seconds to spend on repeated measured instances")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead")
	// Internal: run one instance and report it to the parent process.
	child := flag.Bool("instance", false, "internal: run one instance and write its report to stdout")
	var o runOpts
	flag.IntVar(&o.windows, "windows", 0, "internal: with -instance, windows to measure (0: stop at the first one's open)")
	flag.BoolVar(&o.knee, "knee", false, "internal: with -instance, search the knee after the windows")
	flag.BoolVar(&o.profile, "profile", false, "internal: with -instance, CPU-profile the first window")
	flag.BoolVar(&o.tracing, "tracing", false, "internal: with -instance, trace the first window")
	flag.Parse()
	wl := findWorkload(*name)
	if wl == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {rpc-small|kv-mixed|clos500} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(gomaxprocs)
	if *child {
		if err := instanceMain(wl, *seed, o); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%d | %s GOMAXPROCS=%d nproc=%d\n",
		wl.name, *seed, *seconds, *trace, runtime.Version(), gomaxprocs, runtime.NumCPU())
	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(wl, *seed, time.Duration(*seconds*float64(time.Second)))
	} else {
		res, err = measuredRun(wl, *seed, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// reps is a set of repeated instances of one seed. The first
// workload.seeds instances run distinct sub-seeds of it and their
// windows are pooled for the virtual-time metrics; every later instance
// repeats one of them and must reproduce it bit for bit. Every window
// of every instance is a host-cost sample.
type reps struct {
	first    *summary   // sub-seed 0: the knee, peak RSS, the traced baseline
	pool     []*window  // the windows of the distinct sub-seeds
	bySeed   []*summary // the first instance of each sub-seed
	setupS   []float64  // normalised to the reference's speed, like cpuS and evPerS
	cpuS     []float64  // per window
	evPerS   []float64  // per window
	rawSetup []float64  // as measured, for the report
	rawCPU   []float64
	refS     []float64 // the reference passes' CPU seconds
	setups   map[string][]float64
	gc       []float64
	allocs   []float64
	allocB   []float64
	measured int // instances that measured windows
	mismatch int
	checks   []string // failed run-level checks of any instance
}

// subSeed is the seed of the i-th instance of a run of wl: the first
// wl.seeds instances run distinct inputs, later ones repeat them.
func subSeed(wl *workload, seed uint64, i int) uint64 { return mixID(seed, uint64(i%wl.seeds)) }

// add records the i-th instance.
func (rs *reps) add(s *summary, i, seeds int) {
	if i < seeds {
		if i == 0 {
			rs.first = s
		}
		rs.bySeed = append(rs.bySeed, s)
		rs.pool = append(rs.pool, s.Wins...)
	} else if !sameWindows(s, rs.bySeed[i%seeds]) {
		rs.mismatch++
	}
	rs.measured++
	rs.checks = append(rs.checks, s.Checks...)
	rs.addSetupS(s)
	for _, w := range s.Wins {
		c := w.Cost
		rs.cpuS = append(rs.cpuS, c.normCPU())
		rs.evPerS = append(rs.evPerS, share(float64(c.Events), c.normCPU()))
		rs.rawCPU = append(rs.rawCPU, c.CPUS)
		rs.refS = append(rs.refS, c.Ref)
		rs.gc = append(rs.gc, c.GCShare)
		rs.allocs = append(rs.allocs, share(c.Allocs, float64(c.Events)))
		rs.allocB = append(rs.allocB, share(c.AllocB, float64(c.Events)))
	}
	rs.addSetup(s)
}

// sameWindows reports whether a repeated instance reproduced the
// windows it shares with the first instance of its sub-seed.
func sameWindows(a, b *summary) bool {
	if len(a.Wins) == 0 || len(b.Wins) < len(a.Wins) {
		return false
	}
	for j, w := range a.Wins {
		if w.Fingerprint != b.Wins[j].Fingerprint {
			return false
		}
	}
	return true
}

// addSetupS records an instance's set-up time, at the reference's
// speed as measured right before its boot.
func (rs *reps) addSetupS(s *summary) {
	rs.setupS = append(rs.setupS, s.SetupS*share(refSeconds, s.SetupRef))
	rs.rawSetup = append(rs.rawSetup, s.SetupS)
	rs.refS = append(rs.refS, s.SetupRef)
}

func (rs *reps) addSetup(s *summary) {
	if rs.setups == nil {
		rs.setups = make(map[string][]float64)
	}
	for k, v := range s.Setup {
		rs.setups[k] = append(rs.setups[k], v)
	}
}

// pooled merges the sub-seed windows: all their samples and counts, the
// worst generator health, and their summed virtual length (so achieved()
// is the pooled goodput).
func (rs *reps) pooled() *Tally {
	p := &Tally{Rate: rs.pool[0].Rate}
	for _, w := range rs.pool {
		p.Reads = append(p.Reads, w.Reads...)
		p.Writes = append(p.Writes, w.Writes...)
		p.Issued += w.Issued
		p.OK += w.OK
		p.Shed += w.Shed
		p.Timeout += w.Timeout
		p.Errored += w.Errored
		p.Bad += w.Bad
		p.ReadsIssued += w.ReadsIssued
		p.WritesIssued += w.WritesIssued
		p.LagMax = max(p.LagMax, w.LagMax)
		p.Backlog = max(p.Backlog, w.Backlog)
		p.End += w.End - w.Open
	}
	sortTimes(p.Reads)
	sortTimes(p.Writes)
	return p
}

// repeat runs instances of the seed, each in a process of its own,
// while another one fits in budget host seconds, and at least until
// every sub-seed has run and one has been repeated; the first one also
// searches the knee when knee is set.
func repeat(wl *workload, seed uint64, budget time.Duration, knee bool) (*reps, error) {
	rs := &reps{}
	start := time.Now()
	var longest time.Duration // of the instances after the first
	for i := 0; i <= wl.seeds || time.Since(start)+longest <= budget; i++ {
		began := time.Now()
		s, err := spawn(wl, subSeed(wl, seed, i), runOpts{windows: wl.perInstance, knee: knee && i == 0})
		if err != nil {
			return nil, err
		}
		if len(s.Wins) != wl.perInstance {
			return nil, fmt.Errorf("%s instance measured %d windows, want %d", wl.name, len(s.Wins), wl.perInstance)
		}
		rs.add(s, i, wl.seeds)
		if d := time.Since(began); i > 0 && d > longest {
			longest = d
		}
	}
	// More set-ups alone, so setup_s is a median of enough samples even
	// where a measured instance takes seconds.
	extra := time.Now()
	longest = 0
	for i := 0; len(rs.setupS) < minSetups && time.Since(extra)+longest <= budget/setupShare; i++ {
		began := time.Now()
		s, err := spawn(wl, subSeed(wl, seed, i), runOpts{})
		if err != nil {
			return nil, err
		}
		rs.addSetupS(s)
		rs.addSetup(s)
		longest = max(longest, time.Since(began))
	}
	return rs, nil
}

// cpuPerWindow and eventsPerCPU are the medians over every window of
// the run, each window normalised by the reference pass run right
// before it. Contention from other work on the host also swings a
// window's CPU time by a third within seconds; the median of many short
// windows spread over the run averages those swings out. A low order
// statistic would not: the least windows fall in the rare quietest
// moments of a run, and moved more from run to run than the median did.
func (rs *reps) cpuPerWindow() float64 { return median(rs.cpuS) }
func (rs *reps) eventsPerCPU() float64 { return median(rs.evPerS) }

func measuredRun(wl *workload, seed uint64, budget time.Duration) (*result, error) {
	rs, err := repeat(wl, seed, budget, true)
	if err != nil {
		return nil, err
	}
	in := rs.first
	w := rs.pooled()
	m := metrics{}
	var errs []string
	for _, q := range []pct{p50, p99, p999} {
		v, err := mustQuantile(w.Reads, q, "read")
		if err != nil {
			return nil, err
		}
		m.set(q.name+"_us", v, "us")
	}
	putP99, err := mustQuantile(w.Writes, p99, "write")
	if err != nil {
		return nil, err
	}
	m.set("put_p99_us", putP99, "us")
	m.set("goodput_mops", w.achieved(), "Mops")
	m.set("knee_mops", in.Knee, "Mops")
	m.set("setup_s", median(rs.setupS), "s")
	m.set("run_cpu_s", rs.cpuPerWindow(), "s")
	m.set("events_per_cpu_s", rs.eventsPerCPU(), "1/s")
	// Peak RSS of the first instance's process when its first window
	// closed: one boot and one window, before the knee search.
	m.set("peak_rss_mb", in.RSSMB, "MiB")
	for _, c := range e2eCatalog {
		if _, ok := m[c.name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", c.name)
		}
	}
	if rs.mismatch > 0 {
		errs = append(errs, fmt.Sprintf("%d of %d repeated instances diverged from the first of their sub-seed", rs.mismatch, rs.measured-wl.seeds))
	}
	errs = append(errs, rs.checks...)
	printSummary(wl, rs, w, m, errs)
	return &result{
		Correct:   len(errs) == 0 && w.Bad == 0,
		Attempted: w.Issued,
		Failed:    w.failed(),
		Metrics:   m,
	}, nil
}

// printSummary writes the human-readable report: every metric with its
// unit and base, the failure breakdown and every failed check.
func printSummary(wl *workload, rs *reps, w *Tally, m metrics, errs []string) {
	fmt.Printf("# %d windows pooled (%d sub-seeds x %d), each %d ops offered at %.3f ops/us, the first from %.1f us virtual; %d instances measured\n",
		len(rs.pool), wl.seeds, wl.perInstance, wl.ops, w.Rate, us(rs.pool[0].Open), rs.measured)
	fmt.Printf("# reads: %d ok of %d issued; writes: %d ok of %d issued\n", len(w.Reads), w.ReadsIssued, len(w.Writes), w.WritesIssued)
	fmt.Printf("# fail_ratio %.6g = (shed %d + timeout %d + error %d + bad output %d) / issued %d\n",
		share(float64(w.failed()), float64(w.Issued)), w.Shed, w.Timeout, w.Errored, w.Bad, w.Issued)
	fmt.Printf("# load.issue_lag_max_us %.3f, load.backlog_at_close %d\n", us(w.LagMax), w.Backlog)
	fmt.Printf("# knee: read p99 limit %.0f us, %d probes of %d ops\n", wl.knee.limitUs, rs.first.KneeProbes, wl.knee.n)
	for _, c := range e2eCatalog {
		base := ""
		switch c.name {
		case "p50_us", "p99_us", "p999_us":
			base = fmt.Sprintf(" (n=%d reads)", len(w.Reads))
		case "put_p99_us":
			base = fmt.Sprintf(" (n=%d writes)", len(w.Writes))
		case "setup_s":
			base = fmt.Sprintf(" (median of %d set-ups at the reference's speed; as measured %.4g)", len(rs.setupS), median(rs.rawSetup))
		case "run_cpu_s":
			base = fmt.Sprintf(" (median of %d windows of about %d events at the reference's speed; as measured %.4g)", len(rs.cpuS), rs.first.Wins[0].Cost.Events, median(rs.rawCPU))
		case "events_per_cpu_s":
			base = fmt.Sprintf(" (median of %d windows)", len(rs.evPerS))
		case "peak_rss_mb":
			base = " (VmHWM when the first window closed)"
		}
		fmt.Printf("%-22s %14.6g %s%s\n", c.name, m[c.name].Value, c.unit, base)
	}
	fmt.Printf("# reference pass: median %.4g s of CPU against %.4g s nominal\n", median(rs.refS), refSeconds)
	fmt.Printf("# run_cpu_s samples %s\n# setup_s samples %s\n", fmtList(rs.cpuS), fmtList(rs.setupS))
	for _, e := range errs {
		fmt.Printf("# CHECK FAILED: %s\n", e)
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
