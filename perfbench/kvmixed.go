package main

import (
	"fmt"
	"time"

	"lite/internal/apps/kvstore"
	"lite/internal/cluster"
	"lite/internal/lite"
	"lite/internal/obs"
	"lite/internal/params"
	"lite/internal/simtime"
	etc "lite/internal/workload"
)

// kv-mixed: a one-sided kvstore on two servers; six client nodes issue
// 90% GetDirect (client-traversed index: LT_reads plus a validating
// masked CAS, no server CPU) and 10% Put (the RPC path and the seqlock
// fence) over Zipf(0.99) keys with Facebook ETC value sizes, on a
// keyspace whose value heap exceeds the NIC's 4 MB PTE cache.
const (
	kvKeys      = 16384
	kvZipf      = 0.99
	kvPutMix    = 10 // percent of ops that are PUTs
	kvThreads   = 2
	kvMaxValue  = 4000 // ETC's 1 MB cap lowered so RPC-path fallbacks fit the kvstore's 8 KB get reply
	kvLoaders   = 8    // preload processes per client node
	kvWindowAt  = 250 * time.Millisecond
	kvSizeSalt  = 0x5eed
	kvNamespace = 0
)

var (
	kvServers = []int{1, 2}
	kvClients = []int{0, 3, 4, 5, 6, 7}
)

var kvMixed = &workload{
	name:        "kv-mixed",
	nominal:     0.5,
	ops:         4000,
	perInstance: 16,
	seeds:       3,
	knee:        kneeSpec{n: 4000, limitUs: 60},
	spans:       true,
	build:       buildKVMixed,
}

// kvSize is the ETC value size of one (key, version), a pure function
// of the seed so the checker can recompute it.
func kvSize(seed uint64, key int, ver uint64) int {
	n := int(etc.NewFacebookKV(int64(mixID(seed, kvSizeSalt, uint64(key), ver))).ValueSize())
	if n < valueHeader {
		n = valueHeader
	}
	if n > kvMaxValue {
		n = kvMaxValue
	}
	return n
}

func kvKey(k int) string { return fmt.Sprintf("k%05d", k) }

// kvStats sums the one-sided path counters of every client.
type kvStats struct{ direct, retries, fallbacks, attaches, overloads, resubmits int64 }

func sumKVStats(cs []*kvstore.Client) kvStats {
	var s kvStats
	for _, c := range cs {
		s.direct += c.DirectGets
		s.retries += c.DirectRetries
		s.fallbacks += c.DirectFallbacks
		s.attaches += c.Attaches
		s.overloads += c.Overloads
		s.resubmits += c.Resubmits
	}
	return s
}

func (a kvStats) minus(b kvStats) kvStats {
	return kvStats{a.direct - b.direct, a.retries - b.retries, a.fallbacks - b.fallbacks,
		a.attaches - b.attaches, a.overloads - b.overloads, a.resubmits - b.resubmits}
}

func buildKVMixed(seed uint64) (*rig, error) {
	r := &rig{t0: simtime.Time(kvWindowAt), servers: kvServers, issuers: kvClients}
	cfg := params.Default()
	if err := r.timed("setup.cluster_new_s", func() (err error) {
		r.cls, err = cluster.New(&cfg, 8, 1<<30)
		return err
	}); err != nil {
		return nil, err
	}
	var dep *lite.Deployment
	if err := r.timed("setup.lite_start_s", func() (err error) {
		dep, err = lite.Start(r.cls, lite.DefaultOptions())
		return err
	}); err != nil {
		return nil, err
	}
	var st *kvstore.Store
	if err := r.timed("setup.store_start_s", func() (err error) {
		st, err = kvstore.StartOneSided(r.cls, dep, kvServers, kvThreads)
		return err
	}); err != nil {
		return nil, err
	}
	keys := make([]string, kvKeys)
	for k := range keys {
		keys[k] = kvKey(k)
	}
	maxVer := make([]uint64, kvKeys)
	clients := make([]*kvstore.Client, len(kvClients))
	for i, node := range kvClients {
		clients[i] = st.NewClient(node)
	}

	// Preload version 1 of every key from all client nodes in parallel,
	// then let each client attach to every server's index.
	loaders := len(kvClients) * kvLoaders
	loaded, warmed := 0, 0
	var warmErr error
	for l := 0; l < loaders; l++ {
		l := l
		c := clients[l%len(clients)]
		r.cls.GoOn(kvClients[l%len(clients)], "preload", func(p *simtime.Proc) {
			for k := l; k < kvKeys; k += loaders {
				if err := c.Put(p, keys[k], makeValue(seed, kvNamespace, uint64(k), 1, kvSize(seed, k, 1))); err != nil {
					warmErr = fmt.Errorf("preload %s: %w", keys[k], err)
					return
				}
				maxVer[k] = 1
			}
			loaded++
		})
	}
	for i, node := range kvClients {
		c := clients[i]
		r.cls.GoOn(node, "attach", func(p *simtime.Proc) {
			for loaded < loaders && warmErr == nil {
				p.Sleep(100 * time.Microsecond)
			}
			for _, k := range warmKeys("", keys, len(kvServers)) {
				if _, err := c.GetDirect(p, keys[k]); err != nil {
					warmErr = fmt.Errorf("attach warm-up: %w", err)
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
		if loaded < loaders || warmed < len(clients) {
			return fmt.Errorf("%d of %d preloaders and %d of %d attachments done", loaded, loaders, warmed, len(clients))
		}
		return nil
	}

	cdf := zipfCDF(kvZipf, kvKeys)
	r.op = func(p *simtime.Proc, issuer int, id uint64) (opKind, error) {
		k := zipfPick(cdf, mixID(id, 1))
		c := clients[issuer]
		if id%100 < kvPutMix {
			maxVer[k]++
			ver := maxVer[k]
			return opWrite, c.Put(p, keys[k], makeValue(seed, kvNamespace, uint64(k), ver, kvSize(seed, k, ver)))
		}
		v, err := c.GetDirect(p, keys[k])
		if err != nil {
			return opRead, err
		}
		return opRead, checkValue(v, seed, kvNamespace, uint64(k), maxVer[k], func(ver uint64) int { return kvSize(seed, k, ver) })
	}

	// The zero-server-CPU claim: over the window, the servers dequeue
	// no more calls than the PUTs, the GETs that fell back to the RPC
	// path, the attachments and the resubmits account for. The serve
	// counter is read, as a difference over each window, from fresh
	// registries put on the server nodes when the run is not otherwise
	// traced.
	var at0 kvStats
	var served0 int64
	served := func() int64 {
		var n int64
		for _, s := range kvServers {
			n += r.cls.Nodes[s].Obs.Counter("lite.rpc.served").Value()
		}
		return n
	}
	r.open = func(p *simtime.Proc) {
		for _, s := range kvServers {
			if r.cls.Nodes[s].Obs == nil {
				r.cls.Nodes[s].Obs = obs.NewRegistry(s)
			}
		}
		at0, served0 = sumKVStats(clients), served()
	}
	var win kvStats
	r.close = func(w *window) error {
		win = sumKVStats(clients).minus(at0)
		dequeued := served() - served0
		allowed := w.WritesIssued + win.fallbacks + win.attaches + win.resubmits
		if dequeued > allowed {
			return fmt.Errorf("servers dequeued %d calls in the window, more than the %d PUTs + %d fallbacks + %d attaches + %d resubmits",
				dequeued, w.WritesIssued, win.fallbacks, win.attaches, win.resubmits)
		}
		return nil
	}
	r.layers = func(w *window, m metrics) { win.set(w, m) }
	return r, nil
}

// set fills the kvstore layer's metrics from the window's client stats.
func (s kvStats) set(w *window, m metrics) {
	gets := float64(w.ReadsIssued)
	m.set("kvstore.direct_share", share(float64(s.direct), gets), "ratio")
	m.set("kvstore.direct_retries_per_get", share(float64(s.retries), gets), "1/op")
	m.set("kvstore.fallbacks_per_get", share(float64(s.fallbacks), gets), "1/op")
	m.set("kvstore.overloads_per_op", share(float64(s.overloads), float64(w.Issued)), "1/op")
}
