package bench

import (
	"fmt"
	"time"

	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/simtime"
)

// Ablations probe the design choices DESIGN.md calls out: the K in the
// K x N shared-QP budget (§6.1), LITE's adaptive poll window (§5.2),
// the physically contiguous chunk size behind large LMRs (§4.1), and
// the RPC ring size (§5.1).
func init() {
	register("abl-qp", "Ablation: shared QPs per node pair (K) vs write throughput", ablQP)
	register("abl-window", "Ablation: adaptive poll window vs RPC latency and CPU", ablWindow)
	register("abl-chunk", "Ablation: LMR chunk size vs large-transfer throughput (4.1's <2% claim)", ablChunk)
	register("abl-ring", "Ablation: RPC ring size vs 16-client throughput", ablRing)
}

func ablQP() (*Table, error) {
	t := &Table{
		ID:     "abl-qp",
		Title:  "Shared QPs per node pair (K) vs 48-thread 64B write throughput",
		Header: []string{"K", "Throughput (req/us)", "Outstanding-op budget"},
	}
	for _, k := range []int{1, 2, 4, 8} {
		opts := lite.DefaultOptions()
		opts.QPsPerPair = k
		cls, dep, err := newLITEOpts(2, opts)
		if err != nil {
			return nil, err
		}
		// Oversubscribe the per-QP outstanding-op budget so K is the
		// binding resource.
		const threads, ops = 48, 80
		var done simtime.WaitGroup
		done.Add(threads)
		var h lite.LH
		var last simtime.Time
		cls.GoOn(0, "setup", func(p *simtime.Proc) {
			c := dep.Instance(0).KernelClient()
			h, err = c.MallocAt(p, []int{1}, 1<<20, "", lite.PermRead|lite.PermWrite)
			if err != nil {
				return
			}
			for th := 0; th < threads; th++ {
				cls.GoOn(0, "writer", func(q *simtime.Proc) {
					defer done.Done(q.Env())
					qc := dep.Instance(0).KernelClient()
					buf := make([]byte, 64)
					for i := 0; i < ops; i++ {
						if err := qc.Write(q, h, 0, buf); err != nil {
							return
						}
					}
					if q.Now() > last {
						last = q.Now()
					}
				})
			}
			done.Wait(p)
		})
		if err := cls.Run(); err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", k), reqPerUs(int64(threads*ops), last),
			fmt.Sprintf("%d", k*16))
	}
	t.Note("throughput is insensitive to K: the NIC pipeline, not the QP budget, is the binding resource — which is why LITE can serve a whole node on K x N shared QPs (paper 6.1: 1<=K<=4 suffices)")
	return t, nil
}

func ablWindow() (*Table, error) {
	t := &Table{
		ID:     "abl-window",
		Title:  "Adaptive poll window vs 8B RPC latency and CPU per light-load request",
		Header: []string{"Window (us)", "RPC latency (us)", "CPU/req at 60us gaps (us)"},
	}
	for _, w := range []time.Duration{1 * time.Microsecond, 4 * time.Microsecond, 8 * time.Microsecond, 25 * time.Microsecond, 100 * time.Microsecond} {
		lat, err := rpcLatencyWithWindow(w)
		if err != nil {
			return nil, err
		}
		cpu, err := rpcCPUWithWindow(w)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f", float64(w)/1000), us(lat), us(cpu))
	}
	t.Note("small windows add wakeup latency to every RPC; large windows burn CPU at light load — 5.2's tradeoff")
	return t, nil
}

func rpcLatencyWithWindow(w time.Duration) (simtime.Time, error) {
	cfg := params.Default()
	cfg.AdaptivePollWindow = w
	return liteRPCLatency(cfg, 64, true)
}

func rpcCPUWithWindow(w time.Duration) (simtime.Time, error) {
	cfg := params.Default()
	cfg.AdaptivePollWindow = w
	cls, dep, err := newLITECfg(&cfg, 2, lite.DefaultOptions())
	if err != nil {
		return 0, err
	}
	startLITEEcho(cls, dep, 1, 2)
	const nReq = 400
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c := dep.Instance(0).UserClient()
		in := rpcInput(16, 64)
		for i := 0; i < nReq; i++ {
			p.Sleep(60 * time.Microsecond)
			if _, err := c.RPC(p, 1, benchFn, in, 128); err != nil {
				return
			}
		}
	})
	if err := cls.Run(); err != nil {
		return 0, err
	}
	return cls.TotalCPU() / nReq, nil
}

func ablChunk() (*Table, error) {
	t := &Table{
		ID:     "abl-chunk",
		Title:  "LMR chunk size vs 64MB LMR write throughput (1MB sequential writes)",
		Header: []string{"Chunk (MB)", "Throughput (GB/s)", "Chunks"},
	}
	const lmrSize = 64 << 20
	const writeSize = 1 << 20
	const ops = 128
	for _, chunkMB := range []int64{1, 4, 16, 64} {
		opts := lite.DefaultOptions()
		opts.MaxChunkBytes = chunkMB << 20
		cls, dep, err := newLITEOpts(2, opts)
		if err != nil {
			return nil, err
		}
		var elapsed simtime.Time
		cls.GoOn(0, "writer", func(p *simtime.Proc) {
			c := dep.Instance(0).KernelClient()
			h, err := c.MallocAt(p, []int{1}, lmrSize, "", lite.PermRead|lite.PermWrite)
			if err != nil {
				return
			}
			buf := make([]byte, writeSize)
			start := p.Now()
			for i := 0; i < ops; i++ {
				off := int64(i) % (lmrSize / writeSize) * writeSize
				if err := c.Write(p, h, off, buf); err != nil {
					return
				}
			}
			elapsed = p.Now() - start
		})
		if err := cls.Run(); err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", chunkMB), gbps(ops*writeSize, elapsed),
			fmt.Sprintf("%d", lmrSize/(chunkMB<<20)))
	}
	t.Note("paper 4.1: chunking large LMRs into small physically contiguous pieces costs under 2 percent vs one huge region")
	return t, nil
}

func ablRing() (*Table, error) {
	t := &Table{
		ID:     "abl-ring",
		Title:  "RPC ring size vs 16-client RPC throughput (4KB inputs ride the ring)",
		Header: []string{"Ring (KB)", "Throughput (GB/s)"},
	}
	for _, ringKB := range []int64{8, 32, 128, 1024} {
		opts := lite.DefaultOptions()
		opts.RingBytes = ringKB << 10
		cls, dep, err := newLITEOpts(2, opts)
		if err != nil {
			return nil, err
		}
		startLITEEcho(cls, dep, 1, 16)
		const clients, ops, inSize = 16, 120, 4096
		var done simtime.WaitGroup
		done.Add(clients)
		var last simtime.Time
		for th := 0; th < clients; th++ {
			cls.GoOn(0, "client", func(p *simtime.Proc) {
				defer done.Done(p.Env())
				c := dep.Instance(0).KernelClient()
				in := rpcInput(inSize, 8)
				for i := 0; i < ops; i++ {
					if _, err := c.RPC(p, 1, benchFn, in, 64); err != nil {
						return
					}
				}
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := cls.Run(); err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", ringKB), gbps(int64(clients*ops*inSize), last))
	}
	t.Note("tiny rings stall clients on head-update flow control; beyond a few tens of KB the ring is off the critical path")
	return t, nil
}
