// The scale experiment makes the simulator itself the system under
// test: a 500-node two-tier Clos cluster with a hub mesh running a
// kvstore + tenants mix, executed twice as a replay check — reporting
// virtual-time results in the table and end-to-end events per CPU
// second in the table's host field.
//
// This file measures the simulator's own host-time throughput (events
// per CPU second), for scale and for the replayed 500-node storms
// (runTwice): the host clocks are the measurement here, never an
// input to virtual-time behavior, hence the lint waiver.
//
//simlint:allow-wallclock wall time is the measurement, not an input
package bench

import (
	"errors"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"lite/internal/apps/kvstore"
	"lite/internal/cluster"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/simtime"
	"lite/internal/tenant"
)

func init() {
	register("scale", "500-node Clos cluster: kvstore+tenants mix, simulator host cost", runScale)
}

const (
	scaleNodes     = 500
	scaleLeafNodes = 25 // 20 leaves of 25 hosts
	scaleSpines    = 5  // uplinks at host link rate -> 5x oversubscribed leaves
	scaleServers   = 8  // kvstore servers on nodes 1..8, manager on 0
	scaleThreads   = 4  // RPC threads per server node
	scaleOps       = 48 // closed-loop ops per client node
	scaleMinEvents = 1_000_000
)

// scaleOutcome is one run of the workload. cpu is the process CPU time
// the whole run consumed, bring-up (node construction, the QP mesh,
// control rings, kvstore) included: events per second is end-to-end,
// since bring-up is part of what it costs to complete an experiment.
type scaleOutcome struct {
	events  int64
	virtual simtime.Time
	cpu     time.Duration
	ops     int64
	sheds   int64
	errs    int64
}

// eventsPerSec is throughput against CPU time, not wall time. The
// simulator is single-threaded, so CPU seconds measure the work an
// experiment costs; unlike wall time they do not inflate while the
// process sits descheduled behind a noisy host neighbor, which on
// shared machines is the difference between a reproducible figure and
// a coin flip.
func (o *scaleOutcome) eventsPerSec() float64 { return eventsPerCPUSec(o.events, o.cpu) }

func eventsPerCPUSec(events int64, cpu time.Duration) float64 {
	if cpu <= 0 {
		return 0
	}
	return float64(events) / cpu.Seconds()
}

// cpuTime returns the CPU time (user + system) consumed by the process
// so far. Deltas around a measured region are immune to host
// descheduling in a way wall-clock deltas are not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runTwice runs one replayed experiment twice — the pair is its
// bit-identical replay check — and returns both outcomes with the
// better of the two runs' events per CPU second, the host figure
// bench-guard holds within its band.
func runTwice[T any](id string, once func() (T, error), events func(T) int64) (a, b T, eps float64, err error) {
	for i, out := range []*T{&a, &b} {
		// Collect the previous run's garbage first so no run pays
		// another's GC debt inside its measured window.
		runtime.GC()
		start := cpuTime()
		if *out, err = once(); err != nil {
			if i > 0 {
				return a, b, 0, fmt.Errorf("%s: rerun: %w", id, err)
			}
			return a, b, 0, fmt.Errorf("%s: %w", id, err)
		}
		eps = max(eps, eventsPerCPUSec(events(*out), cpuTime()-start))
	}
	return a, b, eps, nil
}

// scaleWorkload builds the 500-node cluster and drives the mix to
// completion. Everything inside is seeded and virtual, so two calls
// must produce the same events, virtual duration, op count, and error
// count.
func scaleWorkload() (*scaleOutcome, error) {
	// Collect the previous run's garbage now so no run pays another
	// run's GC debt inside its measured window. (The clusters are
	// deliberately not track()ed: each becomes collectable as soon as
	// its outcome is extracted.)
	runtime.GC()
	cpuStart := cpuTime()
	cfg := params.Default()
	cfg.ClosLeafNodes = scaleLeafNodes
	cfg.ClosSpines = scaleSpines
	cls, err := cluster.New(&cfg, scaleNodes, 4<<30)
	if err != nil {
		return nil, err
	}
	env := cls.Env
	opts := lite.DefaultOptions()
	opts.QPsPerPair = 1
	// Hub mesh: every node brings up QPs and control rings to the
	// manager and the kvstore servers only.
	opts.MeshPeers = func(a, b int) bool { return a <= scaleServers || b <= scaleServers }
	opts.AdmissionHighWater = 64
	opts.FairAdmission = true
	dep, err := lite.Start(cls, opts)
	if err != nil {
		return nil, err
	}
	reg := tenant.NewRegistry()
	var classes [3]*tenant.Tenant
	for i, c := range []struct {
		name   string
		weight int
	}{{"gold", 4}, {"silver", 2}, {"bronze", 1}} {
		t, err := reg.Register(c.name, "secret", c.weight)
		if err != nil {
			return nil, err
		}
		classes[i] = t
	}
	reg.Attach(dep)
	servers := make([]int, scaleServers)
	for i := range servers {
		servers[i] = i + 1
	}
	st, err := kvstore.Start(cls, dep, servers, scaleThreads)
	if err != nil {
		return nil, err
	}
	out := &scaleOutcome{}
	val := []byte("0123456789abcdef0123456789abcdef")
	for node := scaleServers + 1; node < scaleNodes; node++ {
		node := node
		// Every third client issues through a tenant service class
		// (weighted fair admission + namespaced keys); the rest are
		// plain kvstore clients.
		var kc *kvstore.Client
		if node%3 == 0 {
			kc = st.NewTenantClient(node, classes[(node/3)%3].ID)
		} else {
			kc = st.NewClient(node)
		}
		cls.GoOn(node, "scale-client", func(p *simtime.Proc) {
			rng := xorshift(uint64(node)*0x9e3779b97f4a7c15 + 1)
			for k := 0; k < scaleOps; k++ {
				key := fmt.Sprintf("k%d", rng.next()%4096)
				put := rng.next()%3 == 0
				var err error
				for attempt := 0; ; attempt++ {
					if put {
						err = kc.Put(p, key, val)
					} else if _, err = kc.Get(p, key); errors.Is(err, kvstore.ErrNotFound) {
						err = nil // a miss is a served lookup
					}
					// An overload shed is a definitive "not executed"
					// with a Retry-After hint; the well-behaved client
					// backs off by the hint and resubmits.
					var ov *lite.OverloadError
					if !errors.As(err, &ov) || attempt >= 50 {
						break
					}
					out.sheds++
					wait := ov.RetryAfter
					if wait <= 0 {
						wait = simtime.Time(time.Microsecond)
					}
					p.Sleep(wait)
				}
				out.ops++
				if err != nil {
					out.errs++
				}
			}
		})
	}
	runErr := env.Run()
	out.cpu = cpuTime() - cpuStart
	out.events = env.Events()
	out.virtual = env.Now()
	if runErr != nil {
		return nil, runErr
	}
	return out, nil
}

// runScale executes the workload twice and gates: both runs must agree
// bit-for-bit on the virtual timeline, every client op must succeed,
// and the run must dispatch at least a million events. Each gate is an
// experiment error, so bench-guard fails loudly on a determinism
// regression; the events-per-CPU-second band in bench-guard catches a
// simulator slowdown.
func runScale() (*Table, error) {
	best, err := scaleWorkload()
	if err != nil {
		return nil, fmt.Errorf("scale: %w", err)
	}
	// CPU jitter on a shared host dwarfs the run's small total, so the
	// reported events per CPU second is the better of the two runs.
	rerun, err := scaleWorkload()
	if err != nil {
		return nil, fmt.Errorf("scale: rerun: %w", err)
	}
	if rerun.cpu < best.cpu {
		best, rerun = rerun, best
	}
	tab := &Table{
		ID:     "scale",
		Title:  "500-node Clos cluster: kvstore+tenants mix, simulator host cost",
		Header: []string{"simulator", "events", "virtual_ms", "ops", "errs"},
	}
	tab.AddRow("hub-mesh",
		fmt.Sprintf("%d", best.events),
		fmt.Sprintf("%.3f", float64(best.virtual)/1e6),
		fmt.Sprintf("%d", best.ops),
		fmt.Sprintf("%d", best.errs),
	)
	tab.Events = best.events
	tab.Virtual = best.virtual
	tab.EventsPerSec = best.eventsPerSec()
	cfg := params.Default()
	cfg.ClosLeafNodes = scaleLeafNodes
	cfg.ClosSpines = scaleSpines
	tab.Note("topology: %d nodes over %d leaves x %d spines, %.1fx oversubscribed; hub mesh to manager+%d servers",
		scaleNodes, scaleNodes/scaleLeafNodes, scaleSpines, cfg.ClosOversubscription(), scaleServers)
	tab.Note("every column is virtual and must match exactly; events per CPU second (host-dependent, better of two runs) is reported outside the table")
	// Gate failures return the table too, so the failing numbers are
	// visible in the report next to the error.
	if best.events != rerun.events || best.virtual != rerun.virtual ||
		best.ops != rerun.ops || best.errs != rerun.errs {
		return tab, fmt.Errorf("scale: runs diverge: (events=%d virtual=%v ops=%d errs=%d) vs (events=%d virtual=%v ops=%d errs=%d)",
			best.events, best.virtual, best.ops, best.errs,
			rerun.events, rerun.virtual, rerun.ops, rerun.errs)
	}
	if best.errs != 0 {
		return tab, fmt.Errorf("scale: %d of %d client ops failed", best.errs, best.ops)
	}
	if best.events < scaleMinEvents {
		return tab, fmt.Errorf("scale: only %d events dispatched, want >= %d", best.events, scaleMinEvents)
	}
	return tab, nil
}
