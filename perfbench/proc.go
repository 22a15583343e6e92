package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
)

// Every instance runs in a process of its own. A finished simulation
// leaves its daemon processes parked on goroutines that never exit,
// each holding its whole cluster; in one long-lived process every
// later instance would pay GC over all the earlier clusters, and its
// host figures would depend on how many ran before it.

// summary is what an instance process reports back: its windows'
// virtual results and host costs, and for profiled or traced instances
// the per-layer figures only they can compute.
type summary struct {
	Wins []*window

	SetupS     float64
	SetupRef   float64
	Setup      map[string]float64
	Knee       float64
	KneeProbes int
	RSSMB      float64
	Checks     []string

	Layers    metrics            // traced instances
	CPUShares map[string]float64 // profiled instances
}

func summarize(in *instance) *summary {
	return &summary{
		Wins:   in.wins,
		SetupS: in.setupS, SetupRef: in.setupRef, Setup: in.setup, Knee: in.knee, KneeProbes: in.kneeProbe, RSSMB: in.rssMB,
		Checks: in.checks,
	}
}

// spawn runs one instance in a child process and returns its summary.
func spawn(wl *workload, seed uint64, o runOpts) (*summary, error) {
	args := []string{"-instance", "-workload", wl.name, "-seed", strconv.FormatUint(seed, 10),
		"-windows=" + strconv.Itoa(o.windows), "-knee=" + strconv.FormatBool(o.knee),
		"-profile=" + strconv.FormatBool(o.profile), "-tracing=" + strconv.FormatBool(o.tracing)}
	cmd := exec.Command(os.Args[0], args...)
	// The instance dies with this process, so a run that is killed
	// leaves nothing behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s instance (seed %d): %w", wl.name, seed, err)
	}
	var s summary
	if err := gob.NewDecoder(&out).Decode(&s); err != nil {
		return nil, fmt.Errorf("%s instance (seed %d): reading its report: %w", wl.name, seed, err)
	}
	return &s, nil
}

// instanceMain is the child side of spawn: run one instance and write
// its summary to standard output.
func instanceMain(wl *workload, seed uint64, o runOpts) error {
	in, err := runInstance(wl, seed, o)
	if err != nil {
		return err
	}
	s := summarize(in)
	if o.profile {
		if s.CPUShares, err = profileShares(in.profile); err != nil {
			return err
		}
	}
	if o.tracing {
		s.Layers, err = tracedLayers(wl, in)
		if err != nil {
			s.Checks = append(s.Checks, err.Error())
		}
	}
	return gob.NewEncoder(os.Stdout).Encode(s)
}
