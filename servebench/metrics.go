package main

// metricDef is one reported metric: its name and unit as BENCHMARK.json
// lists them, the layer it measures, and, for per-layer metrics, the
// end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, layer, moves string
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", "serving processes: launch on prebuilt snapshots until every listener answers (fleet: router reports both replicas healthy); median of several boots", ""},
	{"p50_ms", "ms", "client latency from each request's due time (tail: one batch round trip)", ""},
	{"qps", "queries/s", "batch items answered per second (head, fleet: the open-loop rate achieved)", ""},
	{"recall", "ratio", "distinct labelled queries whose expected entity is among the matches", ""},
	{"rss_mb", "MB", "peak RSS (VmHWM) of the serving processes, summed", ""},
}

// perLayer are the metrics of a traced run (--trace 1). Metrics of a
// layer a workload does not cross (the router on head and tail) read 0.
var perLayer = []metricDef{
	{"latency.p99_ms", "ms", "99th-percentile latency from due time (tail: batch round trip), median over 5 s windows of the untraced pass; not an end-to-end gate because host vCPU stalls move it by half between runs", "user-visible tail"},
	{"gen.late_p99_ms", "ms", "benchmark generator: send lateness vs schedule (untraced pass; 0 in closed loop)", "validity guard: must stay well below latency.p99_ms"},
	{"net.overhead_us", "us", "net/http + loopback: client span - server handler span (median)", "p50_ms @ head"},
	{"http.decode_us", "us", "internal/serve DecodeV1 (head, tail: span; fleet: probe)", "p50_ms, latency.p99_ms @ head; qps @ tail"},
	{"http.encode_us", "us", "v1/v2 handler indented JSON encode (head, tail: span; fleet: probe)", "p50_ms, latency.p99_ms @ head; qps @ tail"},
	{"http.resp_bytes", "bytes", "mean response body per request (untraced pass)", "p50_ms @ head; qps @ tail"},
	{"http.allocs_per_req", "count", "heap allocs per request through Registry.Handler (v1 requests of the workload's shape)", "latency.p99_ms @ head; qps @ tail via GC"},
	{"registry.route_us", "us", "Registry.DoItem self time, exact route: DoItem - Server.DoView, both cache hits (median)", "p50_ms @ head; qps @ tail"},
	{"registry.federate_us", "us", "Registry.DoItem self time, [\"*\"] fan-out: DoItem - sum of per-domain DoView, all hits (median)", "p50_ms @ head; qps @ tail"},
	{"cache.hit_ratio", "ratio", "request cache hits / lookups (/statsz deltas)", "p50_ms, latency.p99_ms @ head; about 0 @ tail"},
	{"cache.evictions_per_kreq", "1/klookup", "cache evictions per 1000 lookups (/statsz deltas)", "p50_ms, latency.p99_ms @ head; qps @ tail"},
	{"singleflight.shared_ratio", "ratio", "misses answered by another request's engine run / misses (/statsz deltas)", "latency.p99_ms @ head"},
	{"doview.hit_ns", "ns", "Server.DoView on a cache hit (median)", "p50_ms @ head"},
	{"doview.miss_overhead_us", "us", "Server.DoView on a miss minus Engine.MatchPrepared on the same item (median)", "qps @ tail"},
	{"tokenize.ns", "ns", "match.Scratch.Tokenize (median)", "qps @ tail"},
	{"engine.exact_us", "us", "Engine.MatchPrepared on a pooled Scratch, exact class (median; federated: all domains)", "qps, p50_ms @ tail"},
	{"engine.typo_us", "us", "Engine.MatchPrepared, typo class (median)", "qps, p50_ms @ tail"},
	{"engine.span-fuzzy_us", "us", "Engine.MatchPrepared, span-fuzzy class (median)", "qps, p50_ms @ tail"},
	{"engine.attributes_us", "us", "Engine.MatchPrepared with rewrite, attributes class (median)", "qps, p50_ms @ tail"},
	{"engine.noise_us", "us", "Engine.MatchPrepared, noise class (median)", "qps, p50_ms @ tail"},
	{"engine.segment_us", "us", "Response.Timing segment, uncached items (mean, untraced pass)", "qps, latency.p99_ms @ tail"},
	{"engine.fuzzy_us", "us", "Response.Timing fuzzy, uncached items (mean, untraced pass)", "qps, latency.p99_ms @ tail"},
	{"engine.rest_us", "us", "Response.Timing total - segment - fuzzy, uncached items (mean, untraced pass)", "qps, latency.p99_ms @ tail"},
	{"engine.allocs_per_query", "count", "Engine.MatchPrepared heap allocs per v1 query", "latency.p99_ms @ head, qps @ tail via GC"},
	{"segment.typo_share", "ratio", "matched spans the trie corrected / matched spans, uncached items", "recall @ tail"},
	{"fuzzy.span_resolved_ratio", "ratio", "span-fuzzy queries whose entity matched / span-fuzzy queries", "recall @ tail"},
	{"engine.noise_fp_ratio", "ratio", "noise queries that matched anything / noise queries", "recall @ tail"},
	{"rewrite.us", "us", "AttributeRewriter.RewriteTokens on remainder tokens (median span)", "qps @ tail; recall (attributes)"},
	{"rewrite.predicates_per_query", "count", "attribute predicates per /v2 item (untraced pass)", "recall (attributes)"},
	{"wire.req_encode_ns", "ns", "internal/fleet/wire AppendRequest (median)", "p50_ms @ fleet"},
	{"wire.req_decode_ns", "ns", "wire.DecodeRequest (median)", "p50_ms @ fleet"},
	{"wire.res_encode_ns", "ns", "wire.AppendResult (median)", "p50_ms @ fleet"},
	{"wire.res_decode_ns", "ns", "wire.DecodeResult (median)", "p50_ms @ fleet"},
	{"wire.res_bytes", "bytes", "encoded result size (median)", "p50_ms @ fleet"},
	{"router.hop_us", "us", "fleet router: router handler span - replica DoItem span per request (fleet only)", "p50_ms, latency.p99_ms @ fleet"},
	{"router.hedge_ratio", "ratio", "router hedges / routed queries (router /statsz deltas; fleet only)", "p50_ms, latency.p99_ms @ fleet"},
	{"router.hedge_win_ratio", "ratio", "hedges that answered first / hedges (fleet only)", "latency.p99_ms @ fleet"},
	{"router.retry_ratio", "ratio", "router retries / routed queries (fleet only)", "latency.p99_ms @ fleet"},
	{"router.affinity_hit_ratio", "ratio", "replica cache hits / lookups behind the router (fleet only)", "p50_ms @ fleet"},
	{"snapshot.open_ms", "ms", "serve.OpenSnapshotMapped, all domains", "setup_s @ all"},
	{"snapshot.prepare_ms", "ms", "serve.Registry.Add (trie, packed index, rewriter), all domains", "setup_s, rss_mb @ all"},
	{"snapshot.mb", "MB", "snapshot files, all domains", "setup_s, rss_mb @ all"},
	{"gc.cycles_per_kreq", "1/kquery", "GC cycles of the serving processes per 1000 queries answered (gctrace, untraced pass)", "latency.p99_ms @ head; qps @ tail"},
	{"gc.pause_ms_per_s", "ms/s", "stop-the-world GC pause per second, summed over serving processes (gctrace)", "latency.p99_ms @ head; qps @ tail"},
	{"stream.repeat_ratio", "ratio", "measured requests whose query repeats an earlier one (cache-eligible share)", "cache.hit_ratio"},
	{"ledger.sum_us", "us", "sum of the ledger's self times: their means over the traced requests between p45 and p55 of latency", "reconciles with the traced p50"},
	{"ledger.untraced_p50_us", "us", "p50 of the untraced pass of the same run", "p50_ms"},
	{"ledger.residual_us", "us", "traced p50 - ledger.sum_us", "reconciliation gap"},
	{"trace.overhead_us", "us", "traced in-process p50 - untraced p50 (so untraced p50 = ledger.sum_us + ledger.residual_us - trace.overhead_us)", "validity guard"},
}
