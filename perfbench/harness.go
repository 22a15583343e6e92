package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"lite/internal/cluster"
	"lite/internal/detrand"
	"lite/internal/lite"
	"lite/internal/load"
	"lite/internal/obs"
	"lite/internal/simtime"
)

// errBadOutput marks an op whose reply failed the benchmark's own
// output check; it counts as a failure and makes the run incorrect.
var errBadOutput = errors.New("output check failed")

// opKind separates the read ops the headline percentiles cover from
// the write ops put_p99_us covers.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// rig is one booted workload instance: a cluster with its software
// stack started, warm-up processes spawned, and the hooks the harness
// needs to drive and check it. Workload files build rigs; the harness
// owns everything that is common (schedules, timing, classification,
// probes).
type rig struct {
	cls *cluster.Cluster
	// issuers are the client nodes; weights split the aggregate Poisson
	// stream across them (nil = even).
	issuers []int
	weights []float64
	// t0 is the stated virtual instant the measured window opens:
	// preload, attachment warm-up and ring negotiation must be done.
	t0 simtime.Time
	// servers are the nodes whose CPU utilization hostos reports.
	servers []int
	// ready reports, at t0, whether warm-up finished (nil = ok).
	ready func() error
	// op issues one op; id is a deterministic identity of the op
	// (seed, phase, issuer, index) the workload derives its content
	// from.
	op func(p *simtime.Proc, issuer int, id uint64) (opKind, error)
	// open and close run at the window's edges, in virtual time, for
	// workload-specific probes and checks (either may be nil).
	open  func(p *simtime.Proc)
	close func(w *window) error
	// layers fills the workload-specific per-layer metrics (may be nil).
	layers func(w *window, m metrics)
	// setup holds the host seconds of each timed constructor.
	setup map[string]float64
	// tracing asks for obs spans and per-op root spans in the window.
	tracing bool
}

// timed runs fn and records its host wall time under name.
func (r *rig) timed(name string, fn func() error) error {
	t := time.Now()
	err := fn()
	if r.setup == nil {
		r.setup = make(map[string]float64)
	}
	r.setup[name] += time.Since(t).Seconds()
	return err
}

// Tally is what one open-loop phase counted. Its fields are exported
// so an instance process can send it to the parent as it is.
type Tally struct {
	Rate float64 // offered, ops per virtual microsecond

	Reads, Writes []simtime.Time // success latencies from scheduled arrival

	Issued, OK, Shed, Timeout, Errored, Bad int64
	ReadsIssued, WritesIssued               int64

	LagMax  simtime.Time
	Backlog int64 // ops in flight when the last arrival was due
	// LateArrivals are the arrivals in the second half of the arrival
	// span, and LateDone the successes that completed in it.
	LateArrivals, LateDone int64
	Open, End              simtime.Time // window open; last completion
}

func (t *Tally) failed() int64 { return t.Shed + t.Timeout + t.Errored + t.Bad }

// achieved is the success throughput in ops per virtual microsecond.
func (t *Tally) achieved() float64 { return share(float64(t.OK)*1e3, float64(t.End-t.Open)) }

// keepsUp reports whether the backlog did not grow: over the second
// half of the arrival span, successes completed at no less than 0.95
// of the rate ops arrived. In steady state both rates equal the
// offered rate whatever the latency, as long as it is short against
// half the span, so the test does not depend on the probe's size.
func (t *Tally) keepsUp() bool { return float64(t.LateDone) >= 0.95*float64(t.LateArrivals) }

// readTailWithin reports whether the read p99 meets the limit, every
// failed op counting as a read that missed it.
func (t *Tally) readTailWithin(limitUs float64) bool {
	failed := int(t.failed())
	all := make([]simtime.Time, len(t.Reads), len(t.Reads)+failed)
	copy(all, t.Reads)
	for i := 0; i < failed; i++ {
		all = append(all, simtime.Time(math.MaxInt64))
	}
	v, _, ok := quantile(sortTimes(all), p99)
	return ok && us(v) <= limitUs
}

// window is one measured phase: its tally and host cost, which an
// instance reports to the parent, and the in-process state the traced
// instance computes its layer metrics from.
type window struct {
	Tally
	Cost        HostCost
	Fingerprint uint64

	inflight int64
	// roots are the ids of the per-op root spans (traced runs only).
	roots []uint64
	// probes at the window's edges.
	p0, p1 probe
	// dom is the obs domain enabled at the window's open, and snap its
	// metrics at the close (traced runs).
	dom  *obs.Domain
	snap obs.Snapshot
}

// classify maps an op error to the load generator's outcome classes.
func (t *Tally) classify(err error) load.Status {
	switch {
	case err == nil:
		t.OK++
		return load.StatusOK
	case errors.Is(err, lite.ErrOverloaded):
		t.Shed++
		return load.StatusShed
	case errors.Is(err, lite.ErrTimeout):
		t.Timeout++
		return load.StatusTimeout
	case errors.Is(err, errBadOutput):
		t.Bad++
		return load.StatusError
	default:
		t.Errored++
		return load.StatusError
	}
}

// mixID folds the components of an op's identity into one seed.
func mixID(parts ...uint64) uint64 {
	var h uint64 = 0x6a09e667f3bcc909
	for _, p := range parts {
		h = detrand.Mix64(h ^ p)
	}
	return h
}

// phase drives one open-loop phase of n ops at rate from start and
// blocks p until every op has completed. The schedule is one split
// Poisson stream; every op is timed from its scheduled arrival.
func (r *rig) phase(p *simtime.Proc, seed uint64, phaseNo int, rate float64, n int, start simtime.Time, w *window) {
	w.Rate, w.Open = rate, start
	weights := r.weights
	if weights == nil {
		weights = make([]float64, len(r.issuers))
		for i := range weights {
			weights[i] = 1
		}
	}
	scheds := load.SplitPoissonWeighted(mixID(seed, uint64(phaseNo)), rate, n, start, weights)
	var last simtime.Time
	for _, s := range scheds {
		if len(s) > 0 && s[len(s)-1] > last {
			last = s[len(s)-1]
		}
	}
	mid := start + (last-start)/2
	for _, s := range scheds {
		for _, at := range s {
			if at >= mid {
				w.LateArrivals++
			}
		}
	}
	var wg simtime.WaitGroup
	wg.Add(n)
	load.RunMulti(r.cls, r.issuers, scheds, func(q *simtime.Proc, i, k int) load.Status {
		at := scheds[i][k]
		if lag := q.Now() - at; lag > w.LagMax {
			w.LagMax = lag
		}
		w.Issued++
		w.inflight++
		var span *obs.Span
		if r.tracing {
			span = r.cls.Nodes[r.issuers[i]].Obs.StartSpan(q.Now(), "bench.op", nil)
			q.SetTrace(span)
		}
		kind, err := r.op(q, i, mixID(seed, uint64(phaseNo), uint64(i), uint64(k)))
		if span != nil {
			span.Done(q.Now())
			q.SetTrace(nil)
		}
		w.inflight--
		if kind == opRead {
			w.ReadsIssued++
		} else {
			w.WritesIssued++
		}
		st := w.classify(err)
		if st == load.StatusOK {
			if kind == opRead {
				w.Reads = append(w.Reads, q.Now()-at)
			} else {
				w.Writes = append(w.Writes, q.Now()-at)
			}
			if q.Now() >= mid && q.Now() <= last {
				w.LateDone++
			}
		}
		if span != nil {
			w.roots = append(w.roots, span.ID())
		}
		if q.Now() > w.End {
			w.End = q.Now()
		}
		wg.Done(q.Env())
		return st
	})
	// The backlog meter reads the in-flight count when the last
	// arrival is due: a server that keeps up holds only the ops whose
	// service overlaps that instant.
	r.cls.Env.Go("bench-backlog", func(q *simtime.Proc) {
		q.SleepUntil(last)
		w.Backlog = w.inflight
	})
	wg.Wait(p)
}

// kneeSpec bounds the saturation search.
type kneeSpec struct {
	n       int     // ops per probe
	limitUs float64 // read p99 limit, microseconds
}

// phaseGap separates a phase from the drained one before it.
const phaseGap = 200 * time.Microsecond

// knee finds the highest offered rate whose probe keeps the read p99
// (failed ops counting as over it) within the limit and keeps up with
// its arrivals: a doubling ramp from the nominal rate, then six
// bisection steps, each probe a fresh seeded phase after the previous
// one drained. Like every phase it is a pure function of the seed.
func (r *rig) knee(p *simtime.Proc, seed uint64, nominal float64, ks kneeSpec) (float64, int) {
	probeNo := 0
	pass := func(rate float64) bool {
		probeNo++
		w := &window{}
		r.phase(p, seed, 1000+probeNo, rate, ks.n, p.Now()+phaseGap, w)
		return w.keepsUp() && w.readTailWithin(ks.limitUs)
	}
	lo, hi := 0.0, 0.0
	for rate, i := nominal, 0; i < 8; rate, i = rate*2, i+1 {
		if !pass(rate) {
			hi = rate
			break
		}
		lo = rate
	}
	if hi == 0 {
		return lo, probeNo
	}
	for i := 0; i < 6; i++ {
		mid := (lo + hi) / 2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probeNo
}

// instance is one full run of a workload: boot, warm-up, the measured
// windows at the nominal rate back to back, and optionally the knee
// search after them.
type instance struct {
	wins      []*window
	setupS    float64 // host wall seconds from boot to the first window's open
	setupRef  float64 // CPU seconds of the reference pass run before boot
	setup     map[string]float64
	knee      float64
	kneeProbe int
	profile   []byte  // CPU profile of the first window, when asked for
	rssMB     float64 // the process's peak RSS when the first window closed
	r         *rig    // kept for the traced instance's layer metrics
	checks    []string
}

// runOpts selects the optional parts of an instance.
type runOpts struct {
	windows int  // measured windows; 0 stops at the first one's open
	knee    bool // search the knee after the windows
	tracing bool
	profile bool
}

func runInstance(wl *workload, seed uint64, o runOpts) (*instance, error) {
	setupRef, err := referenceCPU()
	if err != nil {
		return nil, err
	}
	booted := time.Now()
	r, err := wl.build(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: boot: %w", wl.name, err)
	}
	r.tracing = o.tracing
	in := &instance{setup: r.setup, setupRef: setupRef}
	var simErr error
	var prof profiler
	r.cls.Env.Go("bench-controller", func(p *simtime.Proc) {
		p.SleepUntil(r.t0)
		if r.ready != nil {
			if err := r.ready(); err != nil {
				simErr = fmt.Errorf("warm-up unfinished at the window open (%v): %w", r.t0, err)
				return
			}
		}
		in.setupS = time.Since(booted).Seconds()
		in.setup["setup.preload_s"] = in.setupS - sumSetup(in.setup)
		for j := 0; j < o.windows; j++ {
			w := &window{}
			start := r.t0
			if j > 0 {
				start = p.Now() + phaseGap
			}
			if j == 0 && o.tracing {
				w.dom = r.cls.EnableObs()
				if wl.spans {
					w.dom.EnableTracing()
				}
			}
			if r.open != nil {
				r.open(p)
			}
			w.p0 = takeProbe(r)
			// The set-up's garbage is collected before the first window,
			// outside it, so every window starts from a collected heap
			// (a later one from the collection that closed the one before)
			// and no cycle runs beside the reference pass: otherwise
			// whether the pacer lands a cycle of the set-up's heap inside
			// the window decides a large share of the figure.
			if j == 0 {
				runtime.GC()
			}
			ref, err := referenceCPU()
			if err != nil {
				simErr = err
				return
			}
			var meter hostMeter
			meter.begin(r.cls.Env)
			if j == 0 && o.profile {
				if err := prof.start(); err != nil {
					simErr = err
					return
				}
			}
			r.phase(p, seed, j, wl.nominal, wl.ops, start, w)
			w.Cost = meter.end(r.cls.Env)
			w.Cost.Ref = ref
			if j == 0 && o.profile {
				if in.profile, simErr = prof.stop(); simErr != nil {
					return
				}
			}
			if j == 0 {
				if in.rssMB, simErr = peakRSSMB(); simErr != nil {
					return
				}
			}
			w.p1 = takeProbe(r)
			w.snap = w.dom.Snapshot()
			if r.close != nil {
				if err := r.close(w); err != nil {
					in.checks = append(in.checks, fmt.Sprintf("window %d: %v", j, err))
				}
			}
			in.wins = append(in.wins, w)
		}
		if o.knee {
			in.knee, in.kneeProbe = r.knee(p, seed, wl.nominal, wl.knee)
		}
	})
	if err := r.cls.Run(); err != nil {
		return nil, fmt.Errorf("%s: simulation: %w", wl.name, err)
	}
	if simErr != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, simErr)
	}
	for _, w := range in.wins {
		sortTimes(w.Reads)
		sortTimes(w.Writes)
		w.Fingerprint = w.fingerprint()
	}
	in.r = r
	return in, nil
}

func sumSetup(m map[string]float64) float64 {
	var s float64
	for k, v := range m {
		if k != "setup.preload_s" {
			s += v
		}
	}
	return s
}

// fingerprint hashes everything virtual a window measured, so
// repeated runs of one seed can be compared bit for bit.
func (w *window) fingerprint() uint64 {
	h := fnv.New64a()
	put := func(v int64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, xs := range [][]simtime.Time{w.Reads, w.Writes} {
		put(int64(len(xs)))
		for _, x := range xs {
			put(int64(x))
		}
	}
	for _, v := range []int64{w.Issued, w.OK, w.Shed, w.Timeout, w.Errored, w.Bad,
		int64(w.LagMax), w.Backlog, w.LateArrivals, w.LateDone, int64(w.Open), int64(w.End), w.Cost.Events} {
		put(v)
	}
	return h.Sum64()
}

// us converts virtual nanoseconds to microseconds.
func us(t simtime.Time) float64 { return float64(t) / 1e3 }

// share is a/b, or 0 when b is 0.
func share(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
