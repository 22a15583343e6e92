package bench

import (
	"fmt"
	"time"

	"lite/internal/cluster"
	"lite/internal/lite"
	"lite/internal/obs"
	"lite/internal/params"
	"lite/internal/rpcbase"
	"lite/internal/simtime"
	"lite/internal/workload"
)

func init() {
	register("fig10", "RPC latency vs return size: LITE, 2 Verbs writes, HERD, FaSST", fig10)
	register("fig11", "RPC throughput vs return size, 1 and 16 clients", fig11)
	register("fig12", "RPC memory utilization under the Facebook key-value distribution", fig12)
	register("fig13", "CPU time per RPC vs inter-arrival amplification (Facebook distribution)", fig13)
	register("tab-cpu", "Total CPU time at 1000 RPC/s x 8 threads (5.3)", tabCPU)
	register("breakdown", "LITE RPC latency breakdown from obs spans (8B -> 4KB, 5.3)", breakdown)
}

const benchFn = lite.FirstUserFunc

// startLITEEcho runs LITE RPC server threads at node that reply with
// replySize bytes.
func startLITEEcho(cls *cluster.Cluster, dep *lite.Deployment, node, workers int) {
	inst := dep.Instance(node)
	_ = inst.RegisterRPC(benchFn)
	for w := 0; w < workers; w++ {
		cls.GoDaemonOn(node, "lite-echo", func(p *simtime.Proc) {
			c := inst.KernelClient()
			call, err := c.RecvRPC(p, benchFn)
			if err != nil {
				return
			}
			for {
				// First 4 bytes of input encode the reply size.
				n := int(call.Input[0]) | int(call.Input[1])<<8 | int(call.Input[2])<<16
				call, err = c.ReplyRecvRPC(p, call, make([]byte, n), benchFn)
				if err != nil {
					return
				}
			}
		})
	}
}

func rpcInput(inputSize, replySize int) []byte {
	in := make([]byte, inputSize)
	in[0] = byte(replySize)
	in[1] = byte(replySize >> 8)
	in[2] = byte(replySize >> 16)
	return in
}

// liteRPCLatency measures mean LT_RPC latency for 8B input and the
// given return size under the cost model cfg, from a kernel-level or
// user-level client.
func liteRPCLatency(cfg params.Config, replySize int, kernel bool) (simtime.Time, error) {
	cls, dep, err := newLITECfg(&cfg, 2, lite.DefaultOptions())
	if err != nil {
		return 0, err
	}
	startLITEEcho(cls, dep, 1, 2)
	var lat simtime.Time
	var callErr error
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c := dep.Instance(0).UserClient()
		if kernel {
			c = dep.Instance(0).KernelClient()
		}
		in := rpcInput(8, replySize)
		const iters = 50
		if _, callErr = c.RPC(p, 1, benchFn, in, int64(replySize)+8); callErr != nil {
			return
		}
		start := p.Now()
		for i := 0; i < iters; i++ {
			if _, callErr = c.RPC(p, 1, benchFn, in, int64(replySize)+8); callErr != nil {
				return
			}
		}
		lat = (p.Now() - start) / iters
	})
	if err := cls.Run(); err != nil {
		return 0, err
	}
	return lat, callErr
}

func farmTwoWriteLatency(replySize int) (simtime.Time, error) {
	cls, err := newBare(2)
	if err != nil {
		return 0, err
	}
	pair, err := rpcbase.NewFaRMPair(cls, 0, 1)
	if err != nil {
		return 0, err
	}
	var lat simtime.Time
	cls.GoOn(1, "responder", func(p *simtime.Proc) {
		e := pair.End(1)
		for i := 0; i < 41; i++ {
			if _, err := e.Recv(p); err != nil {
				return
			}
			if err := e.Send(p, make([]byte, replySize)); err != nil {
				return
			}
		}
	})
	cls.GoOn(0, "pinger", func(p *simtime.Proc) {
		e := pair.End(0)
		in := make([]byte, 8)
		_ = e.Send(p, in)
		_, _ = e.Recv(p)
		start := p.Now()
		for i := 0; i < 40; i++ {
			_ = e.Send(p, in)
			if _, err := e.Recv(p); err != nil {
				return
			}
		}
		lat = (p.Now() - start) / 40
	})
	if err := cls.Run(); err != nil {
		return 0, err
	}
	return lat, nil
}

func herdLatency(replySize int) (simtime.Time, error) {
	cls, err := newBare(2)
	if err != nil {
		return 0, err
	}
	srv := rpcbase.StartHERD(cls, 1, 1, func(in []byte) []byte { return make([]byte, replySize) })
	var lat simtime.Time
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c, err := rpcbase.ConnectHERD(cls, srv, 0)
		if err != nil {
			return
		}
		in := make([]byte, 8)
		if _, err := c.Call(p, in); err != nil {
			return
		}
		start := p.Now()
		for i := 0; i < 50; i++ {
			if _, err := c.Call(p, in); err != nil {
				return
			}
		}
		lat = (p.Now() - start) / 50
	})
	if err := cls.Run(); err != nil {
		return 0, err
	}
	return lat, nil
}

func fasstLatency(replySize int) (simtime.Time, error) {
	cls, err := newBare(2)
	if err != nil {
		return 0, err
	}
	srv, err := rpcbase.StartFaSST(cls, 1, 1, func(in []byte) []byte { return make([]byte, replySize) })
	if err != nil {
		return 0, err
	}
	var lat simtime.Time
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c, err := rpcbase.ConnectFaSST(cls, srv, 0)
		if err != nil {
			return
		}
		in := make([]byte, 8)
		if _, err := c.Call(p, in); err != nil {
			return
		}
		start := p.Now()
		for i := 0; i < 50; i++ {
			if _, err := c.Call(p, in); err != nil {
				return
			}
		}
		lat = (p.Now() - start) / 50
	})
	if err := cls.Run(); err != nil {
		return 0, err
	}
	return lat, nil
}

func fig10() (*Table, error) {
	t := &Table{
		ID:     "fig10",
		Title:  "RPC latency vs return size (8B input)",
		Header: []string{"Return (B)", "LITE_RPC (us)", "LITE_RPC KL (us)", "2 Verbs writes (us)", "HERD (us)", "FaSST (us)"},
	}
	for _, r := range []int{8, 64, 512, 4096} {
		user, err := liteRPCLatency(params.Default(), r, false)
		if err != nil {
			return nil, err
		}
		kl, err := liteRPCLatency(params.Default(), r, true)
		if err != nil {
			return nil, err
		}
		farm, err := farmTwoWriteLatency(r)
		if err != nil {
			return nil, err
		}
		herd, err := herdLatency(r)
		if err != nil {
			return nil, err
		}
		fasst, err := fasstLatency(r)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", r), us(user), us(kl), us(farm), us(herd), us(fasst))
	}
	t.Note("paper: LITE has a slight overhead over two bare writes; HERD slightly faster small, worse big; FaSST worst at large sizes")
	return t, nil
}

// liteRPCThroughput measures the aggregate LT_RPC rate of `clients`
// threads sending inputSize-byte requests for replySize-byte replies
// under the given LITE options: the clock starts when every thread has
// completed a warmup call.
func liteRPCThroughput(opts lite.Options, inputSize, replySize, clients, opsPerClient int) (simtime.Time, error) {
	cls, dep, err := newLITEOpts(2, opts)
	if err != nil {
		return 0, err
	}
	startLITEEcho(cls, dep, 1, clients)
	var done, started simtime.WaitGroup
	done.Add(clients)
	started.Add(clients)
	var measStart, last simtime.Time
	var firstErr error
	for th := 0; th < clients; th++ {
		cls.GoOn(0, "client", func(p *simtime.Proc) {
			defer done.Done(p.Env())
			startedDone := false
			markStarted := func() {
				if !startedDone {
					startedDone = true
					started.Done(p.Env())
				}
			}
			defer markStarted()
			c := dep.Instance(0).KernelClient()
			in := rpcInput(inputSize, replySize)
			if _, err := c.RPC(p, 1, benchFn, in, int64(replySize)+8); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			markStarted()
			started.Wait(p)
			if measStart == 0 {
				measStart = p.Now()
			}
			for i := 0; i < opsPerClient; i++ {
				if _, err := c.RPC(p, 1, benchFn, in, int64(replySize)+8); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := cls.Run(); err != nil {
		return 0, err
	}
	if firstErr != nil {
		return 0, firstErr
	}
	return last - measStart, nil
}

func baseRPCThroughput(scheme string, replySize, clients, opsPerClient int) (simtime.Time, error) {
	cls, err := newBare(2)
	if err != nil {
		return 0, err
	}
	handler := func(in []byte) []byte { return make([]byte, replySize) }
	var herdSrv *rpcbase.HERDServer
	var fasstSrv *rpcbase.FaSSTServer
	switch scheme {
	case "herd":
		herdSrv = rpcbase.StartHERD(cls, 1, 4, handler)
	case "fasst":
		// FaSST's master poller executes handlers inline: one thread.
		fasstSrv, err = rpcbase.StartFaSST(cls, 1, 1, handler)
		if err != nil {
			return 0, err
		}
	}
	var done, started simtime.WaitGroup
	done.Add(clients)
	started.Add(clients)
	var measStart, last simtime.Time
	var firstErr error
	for th := 0; th < clients; th++ {
		cls.GoOn(0, "client", func(p *simtime.Proc) {
			defer done.Done(p.Env())
			startedDone := false
			markStarted := func() {
				if !startedDone {
					startedDone = true
					started.Done(p.Env())
				}
			}
			defer markStarted()
			fail := func(err error) {
				if firstErr == nil {
					firstErr = err
				}
			}
			var call func(*simtime.Proc, []byte) ([]byte, error)
			switch scheme {
			case "herd":
				c, err := rpcbase.ConnectHERD(cls, herdSrv, 0)
				if err != nil {
					fail(err)
					return
				}
				call = c.Call
			case "fasst":
				c, err := rpcbase.ConnectFaSST(cls, fasstSrv, 0)
				if err != nil {
					fail(err)
					return
				}
				call = c.Call
			}
			in := make([]byte, 8)
			if _, err := call(p, in); err != nil {
				fail(err)
				return
			}
			markStarted()
			started.Wait(p)
			if measStart == 0 {
				measStart = p.Now()
			}
			for i := 0; i < opsPerClient; i++ {
				if _, err := call(p, in); err != nil {
					fail(err)
					return
				}
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := cls.Run(); err != nil {
		return 0, err
	}
	if firstErr != nil {
		return 0, firstErr
	}
	return last - measStart, nil
}

func fig11() (*Table, error) {
	t := &Table{
		ID:     "fig11",
		Title:  "RPC throughput vs return size (8B input)",
		Header: []string{"Return (B)", "LITE-1 (GB/s)", "HERD-1 (GB/s)", "FaSST-1 (GB/s)", "LITE-16 (GB/s)", "HERD-16 (GB/s)", "FaSST-16 (GB/s)"},
	}
	const ops = 150
	for _, r := range []int{64, 512, 1024, 4096} {
		row := []string{fmt.Sprintf("%d", r)}
		for _, clients := range []int{1, 16} {
			el, err := liteRPCThroughput(lite.DefaultOptions(), 8, r, clients, ops)
			if err != nil {
				return nil, err
			}
			row = append(row, gbps(int64(clients*ops*r), el))
			for _, s := range []string{"herd", "fasst"} {
				el, err := baseRPCThroughput(s, r, clients, ops)
				if err != nil {
					return nil, err
				}
				row = append(row, gbps(int64(clients*ops*r), el))
			}
		}
		t.AddRow(row...)
	}
	t.Note("paper: LITE-16 highest beyond ~1KB returns; FaSST limited by its inline-handler master poller")
	return t, nil
}

func fig12() (*Table, error) {
	t := &Table{
		ID:     "fig12",
		Title:  "RPC memory utilization, Facebook ETC key/value sizes",
		Header: []string{"Scheme", "Key utilization", "Value utilization"},
	}
	kv := workload.NewFacebookKV(99)
	const n = 50000
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := 0; i < n; i++ {
		keys[i] = kv.KeySize()
		vals[i] = kv.ValueSize()
	}
	for k := 1; k <= 4; k++ {
		ku := rpcbase.SendRQUtilization(keys, rpcbase.RQClasses(keys, k))
		vu := rpcbase.SendRQUtilization(vals, rpcbase.RQClasses(vals, k))
		t.AddRow(fmt.Sprintf("%dRQ", k), fmt.Sprintf("%.0f%%", ku*100), fmt.Sprintf("%.0f%%", vu*100))
	}
	t.AddRow("LITE", fmt.Sprintf("%.0f%%", rpcbase.LITERingUtilization(keys)*100),
		fmt.Sprintf("%.0f%%", rpcbase.LITERingUtilization(vals)*100))
	t.Note("paper: send-based RPC wastes posted buffers even with 4 sized RQs; LITE's write-imm rings consume only written bytes")
	return t, nil
}

// cpuPerRequest runs nReq RPCs with the given inter-arrival factor and
// returns total CPU time across both nodes divided by requests.
func cpuPerRequest(scheme string, factor int, nReq int) (simtime.Time, error) {
	gaps := make([]simtime.Time, nReq)
	kv := workload.NewFacebookKV(7)
	sizes := make([]int, nReq)
	for i := range gaps {
		gaps[i] = kv.InterArrival() * simtime.Time(factor)
		v := kv.ValueSize()
		if v > 4096 {
			v = 4096
		}
		sizes[i] = int(v)
	}
	var cls *cluster.Cluster
	run := func(call func(p *simtime.Proc, replySize int) error) error {
		var done simtime.WaitGroup
		const threads = 8
		done.Add(threads)
		for th := 0; th < threads; th++ {
			th := th
			cls.GoOn(0, "client", func(p *simtime.Proc) {
				defer done.Done(p.Env())
				for i := th; i < nReq; i += threads {
					p.Sleep(gaps[i] * threads)
					if err := call(p, sizes[i]); err != nil {
						return
					}
				}
			})
		}
		return cls.Run()
	}

	switch scheme {
	case "lite":
		lcls, dep, err := newLITE(2)
		if err != nil {
			return 0, err
		}
		cls = lcls
		startLITEEcho(cls, dep, 1, 8)
		clients := make([]*lite.Client, 8)
		for i := range clients {
			clients[i] = dep.Instance(0).UserClient()
		}
		var idx int
		if err := run(func(p *simtime.Proc, r int) error {
			c := clients[idx%8]
			idx++
			_, err := c.RPC(p, 1, benchFn, rpcInput(16, r), 4104)
			return err
		}); err != nil {
			return 0, err
		}
	case "herd":
		bcls, err := newBare(2)
		if err != nil {
			return 0, err
		}
		cls = bcls
		srv := rpcbase.StartHERD(cls, 1, 1, func(in []byte) []byte {
			n := int(in[0]) | int(in[1])<<8
			return make([]byte, n)
		})
		conns := make([]*rpcbase.HERDClient, 8)
		var setupDone simtime.WaitGroup
		setupDone.Add(1)
		cls.GoOn(0, "setup", func(p *simtime.Proc) {
			defer setupDone.Done(p.Env())
			for i := range conns {
				conns[i], _ = rpcbase.ConnectHERD(cls, srv, 0)
			}
		})
		var idx int
		if err := run(func(p *simtime.Proc, r int) error {
			setupDone.Wait(p)
			c := conns[idx%8]
			idx++
			in := make([]byte, 16)
			in[0], in[1] = byte(r), byte(r>>8)
			_, err := c.Call(p, in)
			return err
		}); err != nil {
			return 0, err
		}
	case "fasst":
		bcls, err := newBare(2)
		if err != nil {
			return 0, err
		}
		cls = bcls
		srv, err := rpcbase.StartFaSST(cls, 1, 1, func(in []byte) []byte {
			n := int(in[0]) | int(in[1])<<8
			return make([]byte, n)
		})
		if err != nil {
			return 0, err
		}
		conns := make([]*rpcbase.FaSSTClient, 8)
		var setupDone simtime.WaitGroup
		setupDone.Add(1)
		cls.GoOn(0, "setup", func(p *simtime.Proc) {
			defer setupDone.Done(p.Env())
			for i := range conns {
				conns[i], _ = rpcbase.ConnectFaSST(cls, srv, 0)
			}
		})
		var idx int
		if err := run(func(p *simtime.Proc, r int) error {
			setupDone.Wait(p)
			c := conns[idx%8]
			idx++
			in := make([]byte, 16)
			in[0], in[1] = byte(r), byte(r>>8)
			_, err := c.Call(p, in)
			return err
		}); err != nil {
			return 0, err
		}
	}
	return cls.TotalCPU() / simtime.Time(nReq), nil
}

func fig13() (*Table, error) {
	t := &Table{
		ID:     "fig13",
		Title:  "CPU time per RPC vs inter-arrival amplification (Facebook distribution, 8 threads)",
		Header: []string{"Factor", "HERD (us)", "FaSST (us)", "LITE (us)"},
	}
	const nReq = 2000
	for _, f := range []int{1, 2, 4, 8} {
		h, err := cpuPerRequest("herd", f, nReq)
		if err != nil {
			return nil, err
		}
		fa, err := cpuPerRequest("fasst", f, nReq)
		if err != nil {
			return nil, err
		}
		l, err := cpuPerRequest("lite", f, nReq)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%dx", f), us(h), us(fa), us(l))
	}
	t.Note("paper: LITE lowest at light load (adaptive sleep); polling designs burn CPU in proportion to idle time")
	return t, nil
}

func tabCPU() (*Table, error) {
	t := &Table{
		ID:     "tab-cpu",
		Title:  "Total CPU time, 1000 RPC/s across 8 threads for 1s (5.3)",
		Header: []string{"Scheme", "CPU time (s)"},
	}
	// 1000 requests at fixed 1ms spacing across 8 threads.
	for _, scheme := range []string{"lite", "herd", "fasst"} {
		cpu, err := fixedRateCPU(scheme, 1000, time.Millisecond)
		if err != nil {
			return nil, err
		}
		t.AddRow(scheme, fmt.Sprintf("%.2f", cpu.Seconds()))
	}
	t.Note("paper: LITE 4.3s vs HERD 8.7s and FaSST 8.8s on their testbed; the ordering and rough ratio are the reproducible shape")
	return t, nil
}

func fixedRateCPU(scheme string, nReq int, gap simtime.Time) (simtime.Time, error) {
	// Reuse cpuPerRequest's machinery with constant gaps by shadowing
	// the Facebook distribution: emulate with factor chosen so mean
	// gap ~ target. Simpler: run a dedicated loop here.
	switch scheme {
	case "lite":
		cls, dep, err := newLITE(2)
		if err != nil {
			return 0, err
		}
		startLITEEcho(cls, dep, 1, 8)
		var done simtime.WaitGroup
		const threads = 8
		done.Add(threads)
		for th := 0; th < threads; th++ {
			cls.GoOn(0, "client", func(p *simtime.Proc) {
				defer done.Done(p.Env())
				c := dep.Instance(0).UserClient()
				for i := 0; i < nReq/threads; i++ {
					p.Sleep(gap * threads)
					if _, err := c.RPC(p, 1, benchFn, rpcInput(16, 64), 128); err != nil {
						return
					}
				}
			})
		}
		if err := cls.Run(); err != nil {
			return 0, err
		}
		return cls.TotalCPU(), nil
	default:
		cls, err := newBare(2)
		if err != nil {
			return 0, err
		}
		handler := func(in []byte) []byte { return make([]byte, 64) }
		var herdSrv *rpcbase.HERDServer
		var fasstSrv *rpcbase.FaSSTServer
		if scheme == "herd" {
			herdSrv = rpcbase.StartHERD(cls, 1, 1, handler)
		} else {
			fasstSrv, err = rpcbase.StartFaSST(cls, 1, 1, handler)
			if err != nil {
				return 0, err
			}
		}
		var done simtime.WaitGroup
		const threads = 8
		done.Add(threads)
		for th := 0; th < threads; th++ {
			cls.GoOn(0, "client", func(p *simtime.Proc) {
				defer done.Done(p.Env())
				var call func(*simtime.Proc, []byte) ([]byte, error)
				if scheme == "herd" {
					c, err := rpcbase.ConnectHERD(cls, herdSrv, 0)
					if err != nil {
						return
					}
					call = c.Call
				} else {
					c, err := rpcbase.ConnectFaSST(cls, fasstSrv, 0)
					if err != nil {
						return
					}
					call = c.Call
				}
				for i := 0; i < nReq/threads; i++ {
					p.Sleep(gap * threads)
					if _, err := call(p, make([]byte, 16)); err != nil {
						return
					}
				}
			})
		}
		if err := cls.Run(); err != nil {
			return 0, err
		}
		return cls.TotalCPU(), nil
	}
}

// breakdown derives the §5.3 component table from the spans of one
// traced call: each row sums the spans of one layer, replacing the
// hand-computed cfg arithmetic this experiment used to hard-code.
func breakdown() (*Table, error) {
	t := &Table{
		ID:     "breakdown",
		Title:  "LITE RPC latency breakdown from obs spans, 8B input -> 4KB return (5.3)",
		Header: []string{"Component", "Time (us)", "Spans"},
	}
	_, spans, err := traceRPC(true)
	if err != nil {
		return nil, err
	}
	sums := obs.SumByName(spans)
	counts := obs.CountByName(spans)
	row := func(label string, names ...string) {
		var d simtime.Time
		var n int
		for _, nm := range names {
			d += sums[nm]
			n += counts[nm]
		}
		t.AddRow(label, us(d), fmt.Sprintf("%d", n))
	}
	row("total (client LT_RPC)", "lite.rpc")
	row("metadata (mapping+protection checks)", "lite.check")
	row("user/kernel crossings", "hostos.crossing")
	row("kernel dispatch", "hostos.dispatch")
	row("ring post (QoS+QP+doorbell)", "lite.rpc.post")
	row("NIC engine (WQE+caches)", "rnic.tx", "rnic.rx")
	row("NIC DMA", "rnic.tx_dma", "rnic.rx_dma")
	row("wire + switching", "fabric.wire")
	row("server turnaround", "lite.rpc.server")
	row("client reply wait", "lite.rpc.wait")
	t.Note("rows are summed obs spans of one traced call; NIC, wire, and server rows overlap the client's wait")
	t.Note("paper: 6.95us total; metadata < 0.3us; crossings ~0.17us")
	return t, nil
}
