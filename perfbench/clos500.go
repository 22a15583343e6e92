package main

import (
	"errors"
	"fmt"
	"time"

	"lite/internal/apps/kvstore"
	"lite/internal/cluster"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/simtime"
	"lite/internal/tenant"
)

// clos500: 500 nodes on 20 leaves of 25 hosts under 5 spines (5x
// oversubscribed). The manager (node 0) and 8 kvstore servers (nodes
// 1-8) form the hub every other node meshes with; the servers run the
// RPC path under fair admission, shared by gold, silver and bronze
// tenants and plain kernel clients. The other 491 nodes issue
// open-loop 4 KB GET/PUT. The per-op LITE path is the one rpc-small
// measures, but the simulator carries thousands of pending timers,
// oversubscribed uplinks and a 500-node boot.
const (
	closNodes       = 500
	closLeafNodes   = 25
	closSpines      = 5
	closServers     = 8
	closThreads     = 4
	closHighWater   = 64
	closRecvBatch   = 64
	closScratch     = 128 << 10
	closKeys        = 256 // per namespace
	closValue       = 4096
	closPutMix      = 20 // percent of ops that are PUTs
	closLoaders     = 16 // preload processes per namespace
	closWindowAt    = 50 * time.Millisecond
	closWarmStagger = 20 * time.Microsecond
)

// closClasses are the tenant service classes and their QoS weights.
var closClasses = []struct {
	name   string
	weight int
}{{"gold", 4}, {"silver", 2}, {"bronze", 1}}

var clos500 = &workload{
	name:        "clos500",
	nominal:     0.8,
	ops:         2000,
	perInstance: 12,
	seeds:       2,
	knee:        kneeSpec{n: 4000, limitUs: 150},
	spans:       false,
	build:       buildClos500,
}

func buildClos500(seed uint64) (*rig, error) {
	r := &rig{t0: simtime.Time(closWindowAt)}
	for s := 1; s <= closServers; s++ {
		r.servers = append(r.servers, s)
	}
	cfg := params.Default()
	cfg.ClosLeafNodes = closLeafNodes
	cfg.ClosSpines = closSpines
	if err := r.timed("setup.cluster_new_s", func() (err error) {
		r.cls, err = cluster.New(&cfg, closNodes, 4<<30)
		return err
	}); err != nil {
		return nil, err
	}
	opts := lite.DefaultOptions()
	opts.QPsPerPair = 1
	// 64 posted receives per shared QP instead of 512: a client-server
	// QP here carries a few calls per millisecond, and the default
	// depth over ~7900 QPs is 160 MB of receive entries, half the heap
	// every measured window's GC would mark.
	opts.RecvBatch = closRecvBatch
	// A 128 KB reply arena per node instead of 64 MB: a client has a
	// handful of 4 KB replies in flight, and an arena that never wraps
	// puts every reply on fresh simulated pages, so the heap would grow
	// by their frames through the whole run.
	opts.ScratchBytes = closScratch
	opts.MeshPeers = func(a, b int) bool { return a <= closServers || b <= closServers }
	opts.AdmissionHighWater = closHighWater
	opts.FairAdmission = true
	var dep *lite.Deployment
	var st *kvstore.Store
	reg := tenant.NewRegistry()
	if err := r.timed("setup.lite_start_s", func() (err error) {
		dep, err = lite.Start(r.cls, opts)
		return err
	}); err != nil {
		return nil, err
	}
	if err := r.timed("setup.store_start_s", func() (err error) {
		for _, c := range closClasses {
			if _, err := reg.Register(c.name, tenant.Secret(c.name), c.weight); err != nil {
				return err
			}
		}
		reg.Attach(dep)
		st, err = kvstore.Start(r.cls, dep, r.servers, closThreads)
		return err
	}); err != nil {
		return nil, err
	}

	// Namespace 0 is the kernel clients'; namespace t is tenant t's.
	// Every third client node issues as a tenant, in class rotation,
	// with an offered share proportional to its class weight.
	nsCount := 1 + len(closClasses)
	var clients []*kvstore.Client // by issuer
	var nsOf []int                // by issuer
	byNS := make([][]int, nsCount)
	for node := closServers + 1; node < closNodes; node++ {
		ns, w := 0, 1.0
		var c *kvstore.Client
		if node%3 == 0 {
			t := reg.Lookup(uint16(1 + (node/3)%len(closClasses)))
			ns, w = int(t.ID), float64(t.Weight)
			c = st.NewTenantClient(node, t.ID)
		} else {
			c = st.NewClient(node)
		}
		byNS[ns] = append(byNS[ns], len(r.issuers))
		clients = append(clients, c)
		nsOf = append(nsOf, ns)
		r.issuers = append(r.issuers, node)
		r.weights = append(r.weights, w)
	}
	keys := make([]string, closKeys)
	for k := range keys {
		keys[k] = fmt.Sprintf("c%04d", k)
	}
	maxVer := make([][]uint64, nsCount)
	for ns := range maxVer {
		maxVer[ns] = make([]uint64, closKeys)
	}
	value := func(ns, k int, ver uint64) []byte {
		return makeValue(seed, uint64(ns), uint64(k), ver, closValue)
	}

	// Preload every namespace from its own clients, then warm every
	// client's ring to every server it will call.
	loaders := nsCount * closLoaders
	loaded, warmed := 0, 0
	var warmErr error
	for l := 0; l < loaders; l++ {
		ns, j := l%nsCount, l/nsCount
		i := byNS[ns][j%len(byNS[ns])]
		c := clients[i]
		r.cls.GoOn(r.issuers[i], "preload", func(p *simtime.Proc) {
			for k := j; k < closKeys; k += closLoaders {
				if err := admitted(p, func() error { return c.Put(p, keys[k], value(ns, k, 1)) }); err != nil {
					warmErr = fmt.Errorf("preload ns %d %s: %w", ns, keys[k], err)
					return
				}
				maxVer[ns][k] = 1
			}
			loaded++
		})
	}
	for i, node := range r.issuers {
		c, ns := clients[i], nsOf[i]
		prefix := ""
		if ns != 0 {
			prefix = fmt.Sprintf("t%d/", ns)
		}
		stagger := simtime.Time(i) * closWarmStagger
		r.cls.GoOn(node, "warmup", func(p *simtime.Proc) {
			for loaded < loaders && warmErr == nil {
				p.Sleep(200 * time.Microsecond)
			}
			// Staggered, so 491 first calls do not arrive as one burst
			// that fair admission would shed.
			p.Sleep(stagger)
			for _, k := range warmKeys(prefix, keys, closServers) {
				var v []byte
				err := admitted(p, func() (err error) { v, err = c.GetRPC(p, keys[k]); return err })
				if err == nil {
					err = checkValue(v, seed, uint64(ns), uint64(k), maxVer[ns][k], func(uint64) int { return closValue })
				}
				if err != nil {
					warmErr = fmt.Errorf("warm-up: %w", err)
					return
				}
			}
			warmed++
		})
	}
	r.ready = func() error {
		if warmErr != nil {
			return warmErr
		}
		if loaded < loaders || warmed < len(r.issuers) {
			return fmt.Errorf("%d of %d preloaders and %d of %d client warm-ups done", loaded, loaders, warmed, len(r.issuers))
		}
		return nil
	}

	var at0, win kvStats
	r.open = func(*simtime.Proc) { at0 = sumKVStats(clients) }
	r.close = func(*window) error {
		win = sumKVStats(clients).minus(at0)
		return nil
	}
	okBy := make([]int64, nsCount)
	r.op = func(p *simtime.Proc, issuer int, id uint64) (opKind, error) {
		c, ns := clients[issuer], nsOf[issuer]
		k := int(mixID(id, 1) % closKeys)
		kind, err := opRead, error(nil)
		// A fair-admission shed is a definitive "not executed" with a
		// Retry-After hint: the client backs off by the hint and
		// resubmits, so sheds show as latency (and in the lite and
		// kvstore shed counters), and an op fails only if it is shed
		// persistently.
		if id%100 < closPutMix {
			kind = opWrite
			maxVer[ns][k]++
			ver := maxVer[ns][k]
			err = admitted(p, func() error { return c.Put(p, keys[k], value(ns, k, ver)) })
		} else {
			var v []byte
			if err = admitted(p, func() (err error) { v, err = c.GetRPC(p, keys[k]); return err }); err == nil {
				err = checkValue(v, seed, uint64(ns), uint64(k), maxVer[ns][k], func(uint64) int { return closValue })
			}
		}
		if err == nil {
			okBy[ns]++
		}
		return kind, err
	}
	r.layers = func(w *window, m metrics) {
		win.set(w, m)
		// Weighted fairness: successful ops per unit of QoS weight should
		// be equal across tenants whose offered load is proportional to
		// their weight; the spread is (max - min) / mean.
		var lo, hi, sum float64
		for i, c := range closClasses {
			x := float64(okBy[i+1]) / float64(c.weight)
			if i == 0 || x < lo {
				lo = x
			}
			if i == 0 || x > hi {
				hi = x
			}
			sum += x
		}
		m.set("tenant.ok_per_weight_spread", share(hi-lo, sum/float64(len(closClasses))), "ratio")
	}
	return r, nil
}

// admitted runs a call, backing off by the server's Retry-After hint
// and resubmitting while fair admission sheds it (at most 20 times).
func admitted(p *simtime.Proc, call func() error) error {
	for try := 0; ; try++ {
		err := call()
		var ov *lite.OverloadError
		if !errors.As(err, &ov) || try == 20 {
			return err
		}
		p.Sleep(ov.RetryAfter + time.Microsecond)
	}
}
