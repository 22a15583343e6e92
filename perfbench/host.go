// Host-cost measurement: what the simulator spends to produce the
// virtual-time figures. Host clocks are the measurement here and never
// feed back into the simulation.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lite/internal/simtime"
)

// cpuTime is the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtime/metrics read at the window's edges.
var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() [4]float64 {
	s := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	var out [4]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// HostCost is the host cost of one measured window, with the CPU time
// of the reference pass run right before it.
type HostCost struct {
	Events                        int64
	CPUS, AllocB, Allocs, GCShare float64
	Ref                           float64
}

// normCPU is the window's CPU seconds at the reference's nominal speed.
func (c HostCost) normCPU() float64 { return c.CPUS * share(refSeconds, c.Ref) }

// hostMeter measures one window's HostCost.
type hostMeter struct {
	cpu0 time.Duration
	rt0  [4]float64
	ev0  int64
}

// begin opens the measurement of a window. The heap must have just
// been collected (see runInstance).
func (h *hostMeter) begin(env *simtime.Env) {
	h.ev0 = env.Events()
	h.rt0 = readRuntime()
	h.cpu0 = cpuTime()
}

// end closes it after collecting the window's own garbage, so each
// window pays its GC debt exactly once and inside the measurement.
func (h *hostMeter) end(env *simtime.Env) HostCost {
	runtime.GC()
	cpu := cpuTime() - h.cpu0
	rt := readRuntime()
	return HostCost{
		Events:  env.Events() - h.ev0,
		CPUS:    cpu.Seconds(),
		AllocB:  rt[0] - h.rt0[0],
		Allocs:  rt[1] - h.rt0[1],
		GCShare: share(rt[2]-h.rt0[2], rt[3]-h.rt0[3]),
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, less
// what the reference workload keeps resident.
func peakRSSMB() (float64, error) {
	hwm, err := statusMB("VmHWM")
	return hwm - refResidentMB, err
}

// statusMB reads a kB field of /proc/self/status in MiB.
func statusMB(field string) (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == field+":" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// profiler captures a CPU profile of one window into memory.
type profiler struct{ buf bytes.Buffer }

// profileHz is the sampling rate: the default 100 Hz leaves a
// two-second window with too few samples to split by layer. Setting it
// first makes StartCPUProfile print a harmless warning to stderr.
const profileHz = 1000

func (p *profiler) start() error {
	runtime.SetCPUProfileRate(profileHz)
	return pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() ([]byte, error) {
	pprof.StopCPUProfile()
	if p.buf.Len() == 0 {
		return nil, fmt.Errorf("empty CPU profile")
	}
	return p.buf.Bytes(), nil
}
