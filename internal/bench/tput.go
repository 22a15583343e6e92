package bench

import (
	"fmt"

	"lite/internal/lite"
)

func init() {
	register("tput", "LT_RPC throughput vs size and threads: fast path vs per-WR posting (Fig 7 shape)", tput)
}

// tput is the small-message fast-path experiment: multi-thread LT_RPC
// throughput versus request size, once with the fast path on (inline
// WQEs, doorbell-batched post lists, selective signaling — the
// defaults) and once with per-WR posting, at equal offered load.
func tput() (*Table, error) {
	t := &Table{
		ID:     "tput",
		Title:  "LT_RPC throughput vs request size (8B replies): fast path vs per-WR posting",
		Header: []string{"Input (B)", "Threads", "Fast path (req/us)", "Per-WR (req/us)", "Speedup"},
	}
	const ops = 150
	fast := lite.DefaultOptions()
	// Per-WR posting is what the stack looked like before the fast path
	// and is the baseline the speedup column measures against.
	perWR := lite.DefaultOptions()
	perWR.PerWRPosting = true
	for _, size := range []int{8, 64, 256, 1024, 4096} {
		for _, clients := range []int{1, 8} {
			ef, err := liteRPCThroughput(fast, size, 8, clients, ops)
			if err != nil {
				return nil, err
			}
			ew, err := liteRPCThroughput(perWR, size, 8, clients, ops)
			if err != nil {
				return nil, err
			}
			n := int64(clients * ops)
			t.AddRow(fmt.Sprintf("%d", size), fmt.Sprintf("%d", clients),
				reqPerUs(n, ef), reqPerUs(n, ew),
				fmt.Sprintf("%.2fx", float64(ew)/float64(ef)))
		}
	}
	t.Note("per-WR = PerWRPosting: every payload takes the DMA read, every post (including 512-buffer recv restocks) rings its own doorbell, every send is signaled")
	t.Note("requests <= MaxInline (256B) ride inline in the WQE; the gap narrows at 1KB+ where the payload DMA dominates either way")
	return t, nil
}
