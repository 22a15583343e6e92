package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"lite/internal/cluster"
	"lite/internal/detrand"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/simtime"
)

// rpc-small: one server node runs a fixed-cost ServeRPC handler pool;
// three client nodes issue small user-level LT_RPC calls on one split
// Poisson stream. The fabric, kvstore and Clos layers are idle, so the
// latency is the per-message software path: host crossings, lite.check,
// ring post and poll, inline WQEs and admission.
const (
	rpcFn        = lite.FirstUserFunc + 7
	rpcServer    = 0
	rpcWorkers   = 2
	rpcService   = 2 * time.Microsecond // handler capacity: 1 op/us
	rpcHighWater = 64                   // far above any queue a 70% load builds
	rpcReadIn    = 16
	rpcReadOut   = 64
	rpcWriteIn   = 64
	rpcWriteOut  = 16
	rpcWriteMix  = 10 // percent of calls that are 64 B -> 16 B "writes"
)

var rpcSmall = &workload{
	name:        "rpc-small",
	nominal:     0.7, // 70% of the handler pool's 1 op/us
	ops:         5000,
	perInstance: 12,
	seeds:       10,
	knee:        kneeSpec{n: 6000, limitUs: 40},
	spans:       true,
	build:       buildRPCSmall,
}

// rpcReply is the reply the handler must return for an input: a
// deterministic expansion (reads) or digest (writes) of it, so every
// reply can be checked byte for byte.
func rpcReply(in []byte) []byte {
	x := binary.LittleEndian.Uint64(in)
	n := rpcReadOut
	if len(in) == rpcWriteIn {
		n = rpcWriteOut
		for i := 8; i+8 <= len(in); i += 8 {
			x = detrand.Mix64(x ^ binary.LittleEndian.Uint64(in[i:]))
		}
	}
	out := make([]byte, n)
	for i := 0; i < n; i += 8 {
		x = detrand.Mix64(x + uint64(i))
		binary.LittleEndian.PutUint64(out[i:], x)
	}
	return out
}

func buildRPCSmall(seed uint64) (*rig, error) {
	r := &rig{t0: simtime.Time(time.Millisecond), servers: []int{rpcServer}, issuers: []int{1, 2, 3}}
	cfg := params.Default()
	if err := r.timed("setup.cluster_new_s", func() (err error) {
		r.cls, err = cluster.New(&cfg, 4, 1<<30)
		return err
	}); err != nil {
		return nil, err
	}
	opts := lite.DefaultOptions()
	opts.AdmissionHighWater = rpcHighWater
	var dep *lite.Deployment
	if err := r.timed("setup.lite_start_s", func() (err error) {
		dep, err = lite.Start(r.cls, opts)
		return err
	}); err != nil {
		return nil, err
	}
	if err := r.timed("setup.store_start_s", func() error {
		return dep.Instance(rpcServer).ServeRPC(rpcFn, rpcWorkers, func(p *simtime.Proc, c *lite.Call) []byte {
			p.Work(rpcService)
			return rpcReply(c.Input)
		})
	}); err != nil {
		return nil, err
	}
	clients := make([]*lite.Client, len(r.issuers))
	warm := 0
	var warmErr error
	for i, node := range r.issuers {
		clients[i] = dep.Instance(node).UserClient()
		c := clients[i]
		// Ring negotiation happens on a binding's first call; do it for
		// both shapes before the window opens.
		r.cls.GoOn(node, "warmup", func(p *simtime.Proc) {
			for _, n := range []int{rpcReadIn, rpcWriteIn} {
				in := make([]byte, n)
				out, err := c.RPC(p, rpcServer, rpcFn, in, rpcReadOut)
				if err == nil && !bytes.Equal(out, rpcReply(in)) {
					err = errBadOutput
				}
				if err != nil {
					warmErr = err
					return
				}
			}
			warm++
		})
	}
	r.ready = func() error {
		if warmErr != nil {
			return warmErr
		}
		if warm != len(clients) {
			return fmt.Errorf("%d of %d clients warmed", warm, len(clients))
		}
		return nil
	}
	r.op = func(p *simtime.Proc, issuer int, id uint64) (opKind, error) {
		kind, n := opRead, rpcReadIn
		if id%100 < rpcWriteMix {
			kind, n = opWrite, rpcWriteIn
		}
		in := make([]byte, n)
		x := id
		for i := 0; i < n; i += 8 {
			binary.LittleEndian.PutUint64(in[i:], x)
			x = detrand.Mix64(x)
		}
		out, err := clients[issuer].RPC(p, rpcServer, rpcFn, in, rpcReadOut)
		if err == nil && !bytes.Equal(out, rpcReply(in)) {
			err = fmt.Errorf("rpc reply mismatch: %w", errBadOutput)
		}
		return kind, err
	}
	return r, nil
}
