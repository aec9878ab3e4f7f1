package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// tracedRun is the in-process traced pass and its layer probes.
type tracedRun struct {
	t       *tally
	spans   []span
	dropped int64
	pr      *probes
	file    string
}

func (r *runner) traced(measure time.Duration) (*tracedRun, error) {
	// Room for every span of the run: about five per request, plus one
	// per item for batches and a rewrite span per /v2 item.
	perSec := r.w.rate * 8
	if r.w.rate == 0 {
		perSec = 60000
	}
	tr := newTracer(int(perSec*(warmup+measure).Seconds()) + 1024)
	ip, err := startInproc(tr, r.snapPaths, r.w.router)
	if err != nil {
		return nil, err
	}
	t, _, err := r.drive(ip.url, measure, tr, nil)
	ip.stop()
	if err != nil {
		return nil, err
	}
	out := &tracedRun{t: t, spans: tr.recorded(), dropped: tr.dropped.Load()}
	out.file = filepath.Join(r.logDir, "spans.tsv")
	if err := tr.write(out.file); err != nil {
		return nil, err
	}
	if out.pr, err = runProbes(ip, r.sample(), r.w.batch); err != nil {
		return nil, err
	}
	return out, nil
}

// sample picks distinct queries of the workload for the layer probes:
// the head stream's queries in first-request order, or the first tail
// queries.
func (r *runner) sample() []query {
	var out []query
	if r.w.rate == 0 {
		ts := newTailStream(r.pool, r.ctx, r.seed)
		for k := 0; k < probeSize; k++ {
			out = append(out, ts.at(k))
		}
		return out
	}
	seen := map[int]bool{}
	for _, qi := range r.schedule(warmup + r.seconds).query {
		if !seen[qi] {
			seen[qi] = true
			out = append(out, r.pool.queries[qi])
			if len(out) == probeSize {
				break
			}
		}
	}
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi]: the part of a parent span its children cover.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], end), min(x[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// reqLedger is one traced request's self times along its blocking
// path, in microseconds. They sum to the request's latency from its due
// time.
type reqLedger struct {
	wait        float64 // generator: due -> sent
	net         float64 // client span - handler span: net/http, loopback, client
	decode      float64 // DecodeV1 span
	encode      float64 // JSON encode span
	handlerSelf float64 // handler span not covered by its child spans
	items       float64 // union of the item spans (head, tail: DoItem; fleet: replica DoItem)
	handler     float64 // whole handler span
}

func (l reqLedger) total() float64 {
	return l.wait + l.net + l.decode + l.encode + l.handlerSelf + l.items
}

// ledger joins each request's spans by request id and splits its
// latency into self times: a layer's self time is its span minus the
// part of it its child spans cover. Replica spans of the fleet carry no
// request id and join the router handler span that contains them.
func ledger(spans []span) (reqs []reqLedger, rewriteUS []float64, open, prepare float64) {
	type group struct {
		wait, client, handler, decode, encode *span
		items                                 [][2]int64
	}
	groups := map[int64]*group{}
	get := func(rid int64) *group {
		g := groups[rid]
		if g == nil {
			g = &group{}
			groups[rid] = g
		}
		return g
	}
	var replica []*span
	for i := range spans {
		s := &spans[i]
		if s.end == 0 {
			continue
		}
		switch {
		case s.name == spOpen:
			open += float64(s.end-s.start) / 1e6
		case s.name == spPrepare:
			prepare += float64(s.end-s.start) / 1e6
		case s.name == spRewrite:
			rewriteUS = append(rewriteUS, float64(s.end-s.start)/1e3)
		case s.name == spItem && s.rid < 0:
			replica = append(replica, s)
		case s.rid < 0:
		case s.name == spWait:
			get(s.rid).wait = s
		case s.name == spClient:
			get(s.rid).client = s
		case s.name == spHandler:
			get(s.rid).handler = s
		case s.name == spDecode:
			get(s.rid).decode = s
		case s.name == spEncode:
			get(s.rid).encode = s
		case s.name == spItem:
			get(s.rid).items = append(get(s.rid).items, [2]int64{s.start, s.end})
		}
	}
	if len(replica) > 0 {
		var hs []*group
		for _, g := range groups {
			if g.handler != nil {
				hs = append(hs, g)
			}
		}
		sort.Slice(hs, func(i, j int) bool { return hs[i].handler.start < hs[j].handler.start })
		for _, s := range replica {
			// Handlers that started before s; with a few connections only
			// the last few can still be open.
			i := sort.Search(len(hs), func(i int) bool { return hs[i].handler.start > s.start })
			var owner *group
			for j := i - 1; j >= 0 && j >= i-8; j-- {
				if hs[j].handler.end >= s.end {
					if owner != nil {
						owner = nil // two candidates: leave it out
						break
					}
					owner = hs[j]
				}
			}
			if owner != nil {
				owner.items = append(owner.items, [2]int64{s.start, s.end})
			}
		}
	}
	us := func(a, b int64) float64 { return float64(b-a) / 1e3 }
	for _, g := range groups {
		if g.client == nil || g.handler == nil {
			continue
		}
		h := g.handler
		l := reqLedger{handler: us(h.start, h.end), net: us(g.client.start, g.client.end) - us(h.start, h.end)}
		if g.wait != nil {
			l.wait = us(g.wait.start, g.wait.end)
		}
		var iv [][2]int64
		if g.decode != nil {
			l.decode = us(g.decode.start, g.decode.end)
			iv = append(iv, [2]int64{g.decode.start, g.decode.end})
		}
		if g.encode != nil {
			l.encode = us(g.encode.start, g.encode.end)
			iv = append(iv, [2]int64{g.encode.start, g.encode.end})
		}
		l.items = float64(covered(append([][2]int64(nil), g.items...), h.start, h.end)) / 1e3
		iv = append(iv, g.items...)
		l.handlerSelf = float64(h.end-h.start-covered(iv, h.start, h.end)) / 1e3
		reqs = append(reqs, l)
	}
	return reqs, rewriteUS, open, prepare
}

func column(reqs []reqLedger, f func(reqLedger) float64) float64 {
	v := make([]float64, len(reqs))
	for i, l := range reqs {
		v[i] = f(l)
	}
	return median(v)
}

// medianBand returns the requests whose latency lies between the 45th
// and 55th percentile: the mean of their self times is the ledger of a
// median request, and sums to about the traced p50.
func medianBand(reqs []reqLedger) []reqLedger {
	s := append([]reqLedger(nil), reqs...)
	sort.Slice(s, func(i, j int) bool { return s[i].total() < s[j].total() })
	lo, hi := len(s)*45/100, len(s)*55/100+1
	return s[lo:min(hi, len(s))]
}

func mean(reqs []reqLedger, f func(reqLedger) float64) float64 {
	sum := 0.0
	for _, l := range reqs {
		sum += f(l)
	}
	return ratio(sum, float64(len(reqs)))
}

func (r *runner) layerResult(e *e2e, tr *tracedRun) *result {
	t, pr := e.t, tr.pr
	reqs, rewriteUS, openMS, prepareMS := ledger(tr.spans)
	m := map[string]float64{}
	base := map[string]string{}
	set := func(name string, v float64, b string) { m[name], base[name] = v, b }

	untracedP50 := float64(percentile(t.lat, 0.5).Nanoseconds()) / 1e3
	tracedP50 := float64(percentile(tr.t.lat, 0.5).Nanoseconds()) / 1e3
	nreq := fmt.Sprintf("%d traced requests", len(reqs))

	late := 0.0
	if r.w.rate > 0 {
		late = ms(percentile(t.late, 0.99))
	}
	set("gen.late_p99_ms", late, fmt.Sprintf("%d sends", len(t.late)))
	set("latency.p99_ms", ms(windowedP99(t.inOrder(), e.window)), fmt.Sprintf("%d samples", len(t.lat)))
	set("net.overhead_us", column(reqs, func(l reqLedger) float64 { return l.net }), nreq)
	if r.w.router {
		set("http.decode_us", median(pr.decodeUS), fmt.Sprintf("%d probe bodies", len(pr.decodeUS)))
		set("http.encode_us", median(pr.encodeUS), fmt.Sprintf("%d probe bodies", len(pr.encodeUS)))
	} else {
		set("http.decode_us", column(reqs, func(l reqLedger) float64 { return l.decode }), nreq)
		set("http.encode_us", column(reqs, func(l reqLedger) float64 { return l.encode }), nreq)
	}
	set("http.resp_bytes", ratio(float64(t.respBytes), float64(len(t.lat))), fmt.Sprintf("%d responses", len(t.lat)))
	set("http.allocs_per_req", pr.httpAllocs, fmt.Sprintf("%d probe requests", len(pr.decodeUS)))
	set("registry.route_us", median(pr.routeUS), fmt.Sprintf("%d probe pairs", len(pr.routeUS)))
	set("registry.federate_us", median(pr.federateUS), fmt.Sprintf("%d probe pairs", len(pr.federateUS)))

	d := e.delta
	lookups := float64(d.hits + d.misses)
	set("cache.hit_ratio", ratio(float64(d.hits), lookups), fmt.Sprintf("%d lookups", d.hits+d.misses))
	set("cache.evictions_per_kreq", 1000*ratio(float64(d.evictions), lookups), fmt.Sprintf("%d evictions", d.evictions))
	set("singleflight.shared_ratio", ratio(float64(d.sfHits), float64(d.misses)), fmt.Sprintf("%d misses", d.misses))
	set("doview.hit_ns", median(pr.hitNS), fmt.Sprintf("%d probes", len(pr.hitNS)))
	set("doview.miss_overhead_us", median(pr.missOverheadUS), fmt.Sprintf("%d probes", len(pr.missOverheadUS)))
	set("tokenize.ns", median(pr.tokenizeNS), fmt.Sprintf("%d probes", len(pr.tokenizeNS)))
	for _, c := range []string{"exact", "typo", "span-fuzzy", "attributes", "noise"} {
		set("engine."+c+"_us", median(pr.engineUS[c]), fmt.Sprintf("%d probes", len(pr.engineUS[c])))
	}
	u := float64(t.uncached)
	un := fmt.Sprintf("%d uncached items", t.uncached)
	set("engine.segment_us", ratio(t.segUS, u), un)
	set("engine.fuzzy_us", ratio(t.fuzzyUS, u), un)
	set("engine.rest_us", ratio(t.totalUS-t.segUS-t.fuzzyUS, u), un)
	set("engine.allocs_per_query", pr.engineAllocs, "v1 probe queries")
	set("segment.typo_share", ratio(float64(t.corrected), float64(t.spans)), fmt.Sprintf("%d matched spans", t.spans))
	spanRecall, spanN := t.recall("span-fuzzy")
	set("fuzzy.span_resolved_ratio", spanRecall, fmt.Sprintf("%d span-fuzzy queries", spanN))
	fp, noiseN := t.noiseFP()
	set("engine.noise_fp_ratio", fp, fmt.Sprintf("%d noise queries", noiseN))
	set("rewrite.us", median(rewriteUS), fmt.Sprintf("%d rewrite spans", len(rewriteUS)))
	set("rewrite.predicates_per_query", ratio(float64(t.predicates), float64(t.v2Items)), fmt.Sprintf("%d v2 items", t.v2Items))
	set("wire.req_encode_ns", median(pr.reqEnc), fmt.Sprintf("%d probes", len(pr.reqEnc)))
	set("wire.req_decode_ns", median(pr.reqDec), fmt.Sprintf("%d probes", len(pr.reqDec)))
	set("wire.res_encode_ns", median(pr.resEnc), fmt.Sprintf("%d probes", len(pr.resEnc)))
	set("wire.res_decode_ns", median(pr.resDec), fmt.Sprintf("%d probes", len(pr.resDec)))
	set("wire.res_bytes", median(pr.resBytes), fmt.Sprintf("%d probes", len(pr.resBytes)))

	if r.w.router {
		set("router.hop_us", column(reqs, func(l reqLedger) float64 { return l.handlerSelf }), nreq)
		set("router.hedge_ratio", ratio(float64(d.hedges), float64(d.rtQueries)), fmt.Sprintf("%d routed queries", d.rtQueries))
		set("router.hedge_win_ratio", ratio(float64(d.hedgeWins), float64(d.hedges)), fmt.Sprintf("%d hedges", d.hedges))
		set("router.retry_ratio", ratio(float64(d.retries), float64(d.rtQueries)), fmt.Sprintf("%d routed queries", d.rtQueries))
		set("router.affinity_hit_ratio", ratio(float64(d.hits), lookups), fmt.Sprintf("%d replica lookups", d.hits+d.misses))
	} else {
		for _, n := range []string{"router.hop_us", "router.hedge_ratio", "router.hedge_win_ratio", "router.retry_ratio", "router.affinity_hit_ratio"} {
			set(n, 0, "no router on this workload's path")
		}
	}
	// Snapshot set-up spans cover every registry the traced pass built
	// (two for fleet); report one serving process's worth.
	regs := 1.0
	if r.w.router {
		regs = 2
	}
	set("snapshot.open_ms", openMS/regs, "3 domains")
	set("snapshot.prepare_ms", prepareMS/regs, "3 domains")
	mb := 0.0
	for _, p := range r.snapPaths {
		if st, err := os.Stat(p); err == nil {
			mb += float64(st.Size()) / (1 << 20)
		}
	}
	set("snapshot.mb", mb, "3 snapshot files")
	set("gc.cycles_per_kreq", 1000*ratio(float64(e.gc), float64(t.items)), fmt.Sprintf("%d cycles, %d queries", e.gc, t.items))
	set("gc.pause_ms_per_s", ratio(e.gcPause, e.window.Seconds()), fmt.Sprintf("%.3f ms paused", e.gcPause))
	set("stream.repeat_ratio", ratio(float64(t.repeats), float64(t.measuredItemsSeen)), fmt.Sprintf("%d queries", t.measuredItemsSeen))

	// The ledger: mean self times of the median-latency requests.
	type row struct {
		name string
		f    func(reqLedger) float64
	}
	rows := []row{
		{"gen.wait", func(l reqLedger) float64 { return l.wait }},
		{"net.overhead", func(l reqLedger) float64 { return l.net }},
	}
	if r.w.router {
		rows = append(rows,
			row{"router.hop", func(l reqLedger) float64 { return l.handlerSelf }},
			row{"replica.doitem", func(l reqLedger) float64 { return l.items }})
	} else {
		rows = append(rows,
			row{"http.decode", func(l reqLedger) float64 { return l.decode }},
			row{"http.encode", func(l reqLedger) float64 { return l.encode }},
			row{"http.handler_self", func(l reqLedger) float64 { return l.handlerSelf }},
			row{"registry.doitem", func(l reqLedger) float64 { return l.items }})
	}
	band := medianBand(reqs)
	sum := mean(band, reqLedger.total)
	set("ledger.sum_us", sum, fmt.Sprintf("%d median-band requests", len(band)))
	set("ledger.untraced_p50_us", untracedP50, fmt.Sprintf("%d untraced samples", len(t.lat)))
	set("ledger.residual_us", tracedP50-sum, fmt.Sprintf("traced p50 %.1f us", tracedP50))
	set("trace.overhead_us", tracedP50-untracedP50, fmt.Sprintf("%d traced samples", len(tr.t.lat)))

	fmt.Printf("untraced pass: sent %d, failed %d; traced pass: sent %d, failed %d; %d spans (%d dropped) in %s\n",
		t.sent, t.failed, tr.t.sent, tr.t.failed, len(tr.spans), tr.dropped, tr.file)
	if t.firstErr != "" || tr.t.firstErr != "" {
		fmt.Printf("first failure: %s%s\n", t.firstErr, tr.t.firstErr)
	}
	unit := "request"
	if r.w.batch > 1 {
		unit = fmt.Sprintf("batch of %d", r.w.batch)
	}
	fmt.Printf("ledger: mean self time per %s over the %d requests between p45 and p55 of traced latency (us)\n", unit, len(band))
	for _, row := range rows {
		fmt.Printf("  %-20s %10.2f\n", row.name, mean(band, row.f))
	}
	fmt.Printf("  %-20s %10.2f   traced p50 %.2f (residual %.2f); untraced p50 %.2f; tracing overhead %.2f\n",
		"sum", sum, tracedP50, tracedP50-sum, untracedP50, tracedP50-untracedP50)
	fmt.Println("per-layer metrics:")
	out := &result{Correct: r.correct(t) && r.correct(tr.t), Attempted: t.sent + tr.t.sent, Failed: t.failed + tr.t.failed, Metrics: map[string]value{}}
	for _, d := range perLayer {
		out.Metrics[d.name] = value{m[d.name], d.unit}
		fmt.Printf("  %-28s %14.4f %-9s [%s] %s -> %s\n", d.name, m[d.name], d.unit, base[d.name], d.layer, d.moves)
	}
	return out
}
