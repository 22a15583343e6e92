package main

// layerMetric is one per-layer metric of the traced run, recorded with
// the end-to-end metric it should move and the workloads where its
// layer does the most and the least work. BENCHMARK.json lists the
// same names, units and directions (a test keeps the two in step).
type layerMetric struct {
	name, unit, better string
	moves              string // end-to-end metric(s) it should move
	heavy, light       string // workloads
	base               string // what it is counted against
}

var layerCatalog = []layerMetric{
	// simtime: the discrete-event scheduler.
	{"simtime.events_per_op", "1/op", "lower", "run_cpu_s, events_per_cpu_s", "clos500", "rpc-small", "Env.Events() in the window / ops issued"},
	{"host.cpu.simtime", "ratio", "lower", "run_cpu_s, events_per_cpu_s", "clos500", "rpc-small", "flat CPU samples in lite/internal/simtime / all samples"},
	{"host.cpu.goroutine_switch", "ratio", "lower", "run_cpu_s, events_per_cpu_s", "clos500", "rpc-small", "flat samples in runtime park/ready/schedule/channel code / all samples"},
	// fabric: links, leaf/spine switching.
	{"fabric.uplink_busy_max", "ratio", "lower", "p99_us, put_p99_us", "clos500", "rpc-small", "busiest leaf->spine uplink's UplinkBusy delta / window length"},
	{"fabric.egress_busy_max", "ratio", "lower", "p99_us, put_p99_us", "clos500", "rpc-small", "busiest node egress link's EgressBusy delta / window length"},
	{"fabric.queue_wait_us_per_op", "us/op", "lower", "p99_us, put_p99_us", "clos500", "rpc-small", "fabric.queue_wait histogram sum / ops issued"},
	{"fabric.dropped", "count", "lower", "p99_us, fail_ratio", "clos500", "rpc-small", "fabric.dropped counter over the window"},
	{"host.cpu.fabric", "ratio", "lower", "events_per_cpu_s", "clos500", "rpc-small", "flat samples in lite/internal/fabric / all samples"},
	// rnic and verbs: the NIC pipeline model.
	{"rnic.rx_busy_max", "ratio", "lower", "p50_us, knee_mops", "kv-mixed", "clos500", "busiest NIC receive pipeline's PipelineBusy delta / window length"},
	{"rnic.tx_busy_max", "ratio", "lower", "p50_us, knee_mops", "kv-mixed", "clos500", "busiest NIC transmit pipeline / window length"},
	{"rnic.dma_busy_max", "ratio", "lower", "p50_us, knee_mops", "kv-mixed", "clos500", "busiest NIC DMA engine / window length"},
	{"rnic.atomics_per_get", "1/op", "lower", "p50_us, knee_mops", "kv-mixed", "clos500", "rnic.atomic.executed / read ops issued"},
	{"rnic.inline_share", "ratio", "higher", "p50_us", "rpc-small", "kv-mixed", "rnic.inline_wqes / fabric.msgs"},
	{"rnic.mrkey_miss_ratio", "ratio", "lower", "p50_us", "kv-mixed", "rpc-small", "CacheStats key misses / key lookups, all NICs"},
	{"rnic.pte_miss_ratio", "ratio", "lower", "p50_us", "kv-mixed", "rpc-small", "CacheStats PTE misses / PTE lookups, all NICs"},
	{"rnic.self_us_per_op", "us/op", "lower", "p50_us", "rpc-small", "clos500", "exclusive time of rnic.* spans under the op root / ops (one-sided verbs emit no spans)"},
	{"host.cpu.rnic", "ratio", "lower", "run_cpu_s", "kv-mixed", "rpc-small", "flat samples in lite/internal/rnic and verbs / all samples"},
	// hostos: user/kernel crossings and the adaptive wait.
	{"hostos.crossings_per_op", "1/op", "lower", "p50_us, knee_mops", "rpc-small", "kv-mixed", "(2 x hostos.syscalls + hostos.kernel_enters) / ops issued"},
	{"hostos.self_us_per_op", "us/op", "lower", "p50_us", "rpc-small", "kv-mixed", "exclusive time of hostos.* spans under the op root / ops"},
	{"hostos.server_cpu_busy", "cores", "lower", "knee_mops", "rpc-small", "kv-mixed", "server CPUAccount.Busy delta / (window length x servers): busy cores per server, pollers included"},
	{"hostos.wait_slept_share", "ratio", "lower", "p50_us", "rpc-small", "kv-mixed", "hostos.wait.slept / adaptive waits"},
	// hostmem: physical memory and copies.
	{"host.cpu.hostmem", "ratio", "lower", "run_cpu_s", "kv-mixed", "rpc-small", "flat samples in lite/internal/hostmem / all samples"},
	{"host.cpu.memmove", "ratio", "lower", "run_cpu_s", "kv-mixed", "rpc-small", "flat samples in runtime.memmove and memclr / all samples"},
	{"host.alloc_bytes_per_event", "B/event", "lower", "run_cpu_s, peak_rss_mb", "kv-mixed", "rpc-small", "/gc/heap/allocs:bytes delta / events, median of untraced windows"},
	// lite: the kernel RDMA stack.
	{"lite.check_us_per_op", "us/op", "lower", "p50_us", "rpc-small", "kv-mixed", "exclusive time of lite.check spans under the op root / ops"},
	{"lite.post_us_per_op", "us/op", "lower", "p50_us", "rpc-small", "kv-mixed", "exclusive time of lite.rpc.post spans / ops"},
	{"lite.wait_us_per_op", "us/op", "lower", "p50_us, p99_us", "rpc-small", "kv-mixed", "exclusive time of lite.rpc.wait spans / ops"},
	{"lite.rpc.shed_ratio", "ratio", "lower", "fail_ratio, knee_mops", "clos500", "kv-mixed", "lite.rpc.shed / (lite.rpc.served + lite.rpc.shed)"},
	{"lite.rpc.queue_depth_p99", "count", "lower", "p99_us", "clos500", "kv-mixed", "p99 of the lite.rpc.queue_depth histogram (power-of-two buckets)"},
	{"lite.retry.attempts_per_op", "1/op", "lower", "p99_us, fail_ratio", "clos500", "rpc-small", "lite.retry.attempts / ops issued"},
	{"lite.rpc.served_per_get", "1/op", "lower", "p50_us, knee_mops", "rpc-small", "kv-mixed", "lite.rpc.served / read ops issued"},
	{"host.cpu.lite", "ratio", "lower", "run_cpu_s", "rpc-small", "kv-mixed", "flat samples in lite/internal/lite / all samples"},
	// apps/kvstore: the one-sided read protocol and its client.
	{"kvstore.direct_share", "ratio", "higher", "p99_us", "kv-mixed", "rpc-small", "client DirectGets / read ops issued"},
	{"kvstore.direct_retries_per_get", "1/op", "lower", "p99_us", "kv-mixed", "rpc-small", "client DirectRetries / read ops issued"},
	{"kvstore.fallbacks_per_get", "1/op", "lower", "p99_us, put_p99_us", "kv-mixed", "rpc-small", "client DirectFallbacks / read ops issued"},
	{"kvstore.overloads_per_op", "1/op", "lower", "p99_us, fail_ratio", "clos500", "rpc-small", "client Overloads / ops issued"},
	// tenant: weighted fair sharing.
	{"tenant.ok_per_weight_spread", "ratio", "lower", "fail_ratio, p99_us", "clos500", "rpc-small", "(max - min) / mean of successful ops per QoS weight over the tenants"},
	// cluster and boot: the timed constructors.
	{"setup.cluster_new_s", "s", "lower", "setup_s", "clos500", "rpc-small", "host seconds in cluster.New, median of untraced instances"},
	{"setup.lite_start_s", "s", "lower", "setup_s", "clos500", "rpc-small", "host seconds in lite.Start"},
	{"setup.store_start_s", "s", "lower", "setup_s", "clos500", "rpc-small", "host seconds in ServeRPC / kvstore start / tenant registration"},
	{"setup.preload_s", "s", "lower", "setup_s", "kv-mixed", "rpc-small", "host seconds simulating preload and warm-up up to the window open"},
	// Go runtime.
	{"host.gc_cpu_share", "ratio", "lower", "run_cpu_s, peak_rss_mb", "clos500", "rpc-small", "/cpu/classes/gc/total / /cpu/classes/total over the window"},
	{"host.allocs_per_event", "1/event", "lower", "run_cpu_s", "clos500", "rpc-small", "/gc/heap/allocs:objects delta / events"},
	{"host.reference_cpu_s", "s", "lower", "none (the host's speed that run_cpu_s, events_per_cpu_s and setup_s are normalised by)", "all", "none", "median CPU seconds of the reference passes run before each window and boot (nominal 0.030)"},
	// load: generator health (validity of the tails and the knee).
	{"load.issue_lag_max_us", "us", "lower", "validity of p99_us", "all", "none", "latest issue behind a scheduled arrival (expected 0)"},
	{"load.backlog_at_close", "count", "lower", "validity of knee_mops", "all", "none", "ops in flight when the last arrival was due"},
	// The benchmark's own tracing cost.
	{"trace.overhead_cpu_s", "s", "lower", "none (cost of the traced run)", "rpc-small", "clos500", "normalised CPU seconds of the traced window - run_cpu_s"},
}

// e2eCatalog is the end-to-end metrics every untraced run reports, in
// the order BENCHMARK.json lists them.
var e2eCatalog = []struct{ name, unit, better string }{
	{"p50_us", "us", "lower"},
	{"p99_us", "us", "lower"},
	{"p999_us", "us", "lower"},
	{"put_p99_us", "us", "lower"},
	{"goodput_mops", "Mops", "higher"},
	{"knee_mops", "Mops", "higher"},
	{"setup_s", "s", "lower"},
	{"run_cpu_s", "s", "lower"},
	{"events_per_cpu_s", "1/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}
