package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"websyn/internal/fleet"
	"websyn/internal/fleet/wire"
	"websyn/internal/match"
	"websyn/internal/serve"
)

// Span names. Every span wraps one call the benchmark makes into a
// public entry point of the serving stack (or, for client, the
// generator's own round trip).
const (
	spWait    = iota // generator: due time -> request sent (open loop)
	spClient         // generator: request sent -> response read
	spHandler        // HTTP handler: composed serve handler, or the fleet router's
	spDecode         // serve.DecodeV1
	spItem           // serve.Registry.DoItem (in a replica: fleet.Backend.DoItem)
	spEncode         // v1/v2 JSON response encode
	spRewrite        // match.AttributeRewriter.RewriteTokens, called by the engine
	spOpen           // serve.OpenSnapshotMapped
	spPrepare        // serve.Registry.Add
)

var spanNames = [...]string{"gen.wait", "client", "http.handler", "http.decode", "registry.doitem", "http.encode", "rewrite", "snapshot.open", "snapshot.prepare"}

// span is one timed call. rid is the benchmark's request id (-1 where
// the call cannot see it); parent indexes the enclosing span (-1 none).
type span struct {
	rid        int64
	name       uint8
	parent     int32
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in a preallocated in-memory table; they are
// written out once the run ends. Spans past capacity are counted, not
// kept.
type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) begin(rid int64, name uint8, parent int32) int32 {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{rid: rid, name: name, parent: parent, start: int64(time.Since(t.epoch))}
	return int32(i)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.epoch))
	}
}

// client implements spanSink for the generator: the wait from due time
// to send (open loop only) and the round trip.
func (t *tracer) client(rid int64, due, sent, done time.Time) {
	t.add(span{rid: rid, name: spWait, parent: -1, start: int64(due.Sub(t.epoch)), end: int64(sent.Sub(t.epoch))})
	t.add(span{rid: rid, name: spClient, parent: -1, start: int64(sent.Sub(t.epoch)), end: int64(done.Sub(t.epoch))})
}

func (t *tracer) add(s span) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = s
}

// recorded returns the completed spans. Call only after every traced
// call has returned.
func (t *tracer) recorded() []span {
	n := min(t.n.Load(), int64(len(t.spans)))
	return t.spans[:n]
}

// write dumps the spans as tab-separated lines: rid, name, parent,
// start ns, end ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "rid\tname\tparent\tstart_ns\tend_ns")
	for _, s := range t.recorded() {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", s.rid, spanNames[s.name], s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedRewriter records a span around every rewrite the engine runs.
type timedRewriter struct {
	inner match.AttributeRewriter
	t     *tracer
}

func (r timedRewriter) RewriteTokens(tokens []string, used []bool, minSim float64, explain func(format string, args ...any)) []match.Predicate {
	s := r.t.begin(-1, spRewrite, -1)
	defer r.t.end(s)
	return r.inner.RewriteTokens(tokens, used, minSim, explain)
}

// tracedBackend is a fleet replica's backend with a span around each
// routed item.
type tracedBackend struct {
	reg *serve.Registry
	t   *tracer
}

func (b tracedBackend) DoItem(it match.Request, domains []string) serve.V1Result {
	s := b.t.begin(-1, spItem, -1)
	defer b.t.end(s)
	return b.reg.DoItem(it, domains)
}

// loadRegistry opens every snapshot memory-mapped and registers it, as
// matchd -mmap does, with spans around both steps and a traced
// rewriter on every domain's engine.
func loadRegistry(t *tracer, snaps map[string]string) (*serve.Registry, map[string]*serve.Snapshot, error) {
	reg := serve.NewRegistry(serve.Config{})
	out := map[string]*serve.Snapshot{}
	for _, d := range sortedKeys(snaps) {
		s := t.begin(-1, spOpen, -1)
		snap, err := serve.OpenSnapshotMapped(snaps[d])
		t.end(s)
		if err != nil {
			return nil, nil, err
		}
		s = t.begin(-1, spPrepare, -1)
		srv, err := reg.Add(d, snap, serve.SnapshotMeta{Path: snaps[d]})
		t.end(s)
		if err != nil {
			return nil, nil, err
		}
		if eng := srv.Engine(); eng.Rewriter() != nil {
			eng.SetRewriter(timedRewriter{inner: eng.Rewriter(), t: t})
		}
		out[d] = snap
	}
	return reg, out, nil
}

// composedHandler serves /v1/match and /v2/match from the same public
// calls the registry's own handler makes — DecodeV1, V1Items, one
// Registry.DoItem per item on a GOMAXPROCS worker pool, and the
// indented JSON encode — with a span around each.
type composedHandler struct {
	reg *serve.Registry
	t   *tracer
}

func (h composedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	v2 := r.URL.Path == "/v2/match"
	if r.Method != http.MethodPost || (!v2 && r.URL.Path != "/v1/match") {
		http.NotFound(w, r)
		return
	}
	rid, _ := strconv.ParseInt(r.Header.Get(ridHeader), 10, 64)
	hs := h.t.begin(rid, spHandler, -1)
	defer h.t.end(hs)
	ds := h.t.begin(rid, spDecode, hs)
	req, ok := serve.DecodeV1(w, r, serve.V1BodyLimit(serve.DefaultMaxBatch))
	h.t.end(ds)
	if !ok {
		return
	}
	items, status, msg := serve.V1Items(req, serve.DefaultMaxBatch)
	if msg != "" {
		serve.WriteV1Error(w, status, "%s", msg)
		return
	}
	results := make([]serve.V1Result, len(items))
	parallel(len(items), func(i int) {
		items[i].Rewrite = v2
		s := h.t.begin(rid, spItem, hs)
		results[i] = h.reg.DoItem(items[i], req.Domains)
		h.t.end(s)
	})
	es := h.t.begin(rid, spEncode, hs)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	err := enc.Encode(serve.V1Response{Count: len(results), Results: results})
	h.t.end(es)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: encoding response: %v\n", err)
	}
}

// parallel runs fn over [0, n) on up to GOMAXPROCS goroutines.
func parallel(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ridHandler wraps a handler (the fleet router's) in a handler span.
type ridHandler struct {
	h http.Handler
	t *tracer
}

func (h ridHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid, _ := strconv.ParseInt(r.Header.Get(ridHeader), 10, 64)
	s := h.t.begin(rid, spHandler, -1)
	h.h.ServeHTTP(w, r)
	h.t.end(s)
}

// inproc is the traced serving stack inside the benchmark process.
type inproc struct {
	url     string
	regs    []*serve.Registry // the registry (head, tail) or each replica's (fleet)
	snaps   map[string]*serve.Snapshot
	servers []*http.Server
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	wires   []*fleet.Server
}

func serveHTTP(ln net.Listener, h http.Handler, wg *sync.WaitGroup) *http.Server {
	srv := &http.Server{Handler: h, ReadTimeout: 5 * time.Second, WriteTimeout: 30 * time.Second}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return srv
}

func startInproc(t *tracer, snaps map[string]string, withRouter bool) (*inproc, error) {
	ip := &inproc{}
	ctx, cancel := context.WithCancel(context.Background())
	ip.cancel = cancel
	replicas := 1
	if withRouter {
		replicas = 2
	}
	var specs []fleet.ReplicaSpec
	for i := 0; i < replicas; i++ {
		reg, opened, err := loadRegistry(t, snaps)
		if err != nil {
			ip.stop()
			return nil, err
		}
		ip.regs = append(ip.regs, reg)
		if ip.snaps == nil {
			ip.snaps = opened
		}
		if !withRouter {
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ip.stop()
			return nil, err
		}
		ws := fleet.NewServer(tracedBackend{reg: reg, t: t}, func(string, ...any) {})
		ip.wires = append(ip.wires, ws)
		ip.wg.Add(1)
		go func() {
			defer ip.wg.Done()
			_ = ws.Serve(ctx, ln) // returns once ctx is cancelled
		}()
		specs = append(specs, fleet.ReplicaSpec{Addr: ln.Addr().String()})
	}
	var h http.Handler = composedHandler{reg: ip.regs[0], t: t}
	if withRouter {
		rt, err := fleet.NewRouter(fleet.RouterConfig{Replicas: specs, Logf: func(string, ...any) {}})
		if err != nil {
			ip.stop()
			return nil, err
		}
		ip.wg.Add(1)
		go func() {
			defer ip.wg.Done()
			rt.Run(ctx)
		}()
		mux := http.NewServeMux()
		rt.Mount(mux)
		h = ridHandler{h: mux, t: t}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ip.stop()
		return nil, err
	}
	ip.servers = append(ip.servers, serveHTTP(ln, h, &ip.wg))
	ip.url = "http://" + ln.Addr().String()
	return ip, nil
}

// stop shuts the HTTP servers down (waiting for in-flight handlers),
// then the wire servers and router, and waits for every goroutine.
func (ip *inproc) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range ip.servers {
		_ = s.Shutdown(ctx) // a timeout leaves nothing further to do
	}
	for _, w := range ip.wires {
		w.Close()
	}
	if ip.cancel != nil {
		ip.cancel()
	}
	ip.wg.Wait()
}

// probes holds per-call timings of the layers the benchmark calls
// directly, each repeated reps times and averaged per sample.
type probes struct {
	tokenizeNS               []float64
	engineUS                 map[string][]float64 // per class
	hitNS, missOverheadUS    []float64
	routeUS, federateUS      []float64
	reqEnc, reqDec           []float64
	resEnc, resDec           []float64
	resBytes                 []float64
	decodeUS, encodeUS       []float64
	engineAllocs, httpAllocs float64
}

const reps = 8

func timeIt(fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / reps
}

// targetsOf lists the domains an item's engine work runs in.
func targetsOf(q *query, domains []string) []string {
	if q.fed {
		return domains
	}
	return []string{q.domain}
}

// runProbes times each layer's public entry point on a sample of the
// workload's queries: Scratch.Tokenize, Engine.MatchPrepared per class,
// Server.DoView on a miss and a hit (on fresh standalone servers),
// Registry.DoItem against Server.DoView in the same cache state, the
// WFP1 codec, and DecodeV1 plus the JSON encode. Allocation counts
// come last, each from one loop between two runtime.ReadMemStats.
func runProbes(ip *inproc, sample []query, batch int) (*probes, error) {
	pr := &probes{engineUS: map[string][]float64{}}
	domains := sortedKeys(ip.snaps)
	fresh := map[string]*serve.Server{}
	for _, d := range domains {
		fresh[d] = serve.NewServer(ip.snaps[d], serve.Config{})
	}
	reg := ip.regs[0]
	sc := match.NewScratch()
	var buf []byte
	for i := range sample {
		q := &sample[i]
		it := match.Request{Query: q.text, Domain: q.domain, Rewrite: q.v2}
		var fan []string
		if q.fed {
			fan = []string{"*"}
		}
		pr.tokenizeNS = append(pr.tokenizeNS, timeIt(func() { sc.Tokenize(q.text) }))

		res := reg.DoItem(it, fan) // warm: the pair below runs on cache hits
		if res.Error != "" {
			return nil, fmt.Errorf("probe %q: %s", q.text, res.Error)
		}
		bare := it
		bare.Domain = ""
		engine, missOver, hit, views := 0.0, 0.0, 0.0, 0.0
		hitsOK := true
		for _, d := range targetsOf(q, domains) {
			eng := fresh[d].Engine()
			var err error
			e := timeIt(func() {
				sc.Tokenize(q.text)
				_, err = eng.MatchPrepared(bare, sc)
			}) - pr.tokenizeNS[len(pr.tokenizeNS)-1]
			if err != nil {
				return nil, err
			}
			engine += e
			var cached bool
			t0 := time.Now()
			err = fresh[d].DoView(bare, func(_ *match.Response, c bool) { cached = c })
			miss := float64(time.Since(t0).Nanoseconds())
			if err != nil {
				return nil, err
			}
			if !cached {
				missOver += miss/1e3 - e/1e3
			}
			hit += timeIt(func() { _ = fresh[d].DoView(bare, func(*match.Response, bool) {}) })

			srv, _ := reg.Domain(d)
			views += timeIt(func() { // the item as the registry routes it
				_ = srv.DoView(it, func(_ *match.Response, c bool) { hitsOK = hitsOK && c })
			})
		}
		pr.engineUS[q.class] = append(pr.engineUS[q.class], engine/1e3)
		pr.missOverheadUS = append(pr.missOverheadUS, missOver)
		pr.hitNS = append(pr.hitNS, hit/float64(len(targetsOf(q, domains))))

		doItem := timeIt(func() { res = reg.DoItem(it, fan) })
		if hitsOK && res.Cached {
			d := (doItem - views) / 1e3
			if q.fed {
				pr.federateUS = append(pr.federateUS, d)
			} else {
				pr.routeUS = append(pr.routeUS, d)
			}
		}

		wr := wire.Result{Response: res.Response, Cached: res.Cached, Err: res.Error}
		pr.reqEnc = append(pr.reqEnc, timeIt(func() { buf = wire.AppendRequest(buf[:0], it, fan) }))
		reqBytes := append([]byte(nil), buf...)
		pr.reqDec = append(pr.reqDec, timeIt(func() { _, _, _ = wire.DecodeRequest(reqBytes) }))
		pr.resEnc = append(pr.resEnc, timeIt(func() { buf = wire.AppendResult(buf[:0], wr) }))
		resBytes := append([]byte(nil), buf...)
		pr.resBytes = append(pr.resBytes, float64(len(resBytes)))
		var derr error
		pr.resDec = append(pr.resDec, timeIt(func() { _, derr = wire.DecodeResult(resBytes) }))
		if derr != nil {
			return nil, fmt.Errorf("wire round trip of %q: %v", q.text, derr)
		}
	}

	// HTTP JSON layer, on the workload's own request shape.
	bodies, results := httpShapes(reg, sample, batch)
	for i, body := range bodies {
		hr := &http.Request{Method: http.MethodPost, Body: io.NopCloser(bytes.NewReader(body)), Header: http.Header{}}
		rw := &nullWriter{h: http.Header{}}
		var ok bool
		pr.decodeUS = append(pr.decodeUS, timeIt(func() {
			hr.Body = io.NopCloser(bytes.NewReader(body))
			_, ok = serve.DecodeV1(rw, hr, serve.V1BodyLimit(serve.DefaultMaxBatch))
		})/1e3)
		if !ok {
			return nil, fmt.Errorf("probe DecodeV1 rejected %.100s", body)
		}
		resp := serve.V1Response{Count: len(results[i]), Results: results[i]}
		pr.encodeUS = append(pr.encodeUS, timeIt(func() {
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			_ = enc.Encode(resp) // io.Discard never fails
		})/1e3)
	}

	// Allocations: the engine hot path (v1 classes; the v2 rewrite stage
	// may allocate), then the registry's own HTTP handler end to end.
	var v1 []match.Request
	var eng []*match.Engine
	for i := range sample {
		if !sample[i].v2 {
			for _, d := range targetsOf(&sample[i], domains) {
				v1 = append(v1, match.Request{Query: sample[i].text})
				eng = append(eng, fresh[d].Engine())
			}
		}
	}
	pr.engineAllocs = allocsPer(len(v1), func() {
		for i := range v1 {
			sc.Tokenize(v1[i].Query)
			_, _ = eng[i].MatchPrepared(v1[i], sc) // validated above
		}
	})
	h := reg.Handler()
	reqs := make([]*http.Request, len(bodies))
	readers := make([]*bytes.Reader, len(bodies))
	for i, body := range bodies {
		readers[i] = bytes.NewReader(body)
		reqs[i], _ = http.NewRequest(http.MethodPost, "/v1/match", readers[i]) // constant URL parses
	}
	rw := &nullWriter{h: http.Header{}}
	pr.httpAllocs = allocsPer(len(reqs), func() {
		for i, r := range reqs {
			readers[i].Reset(bodies[i])
			clear(rw.h)
			h.ServeHTTP(rw, r)
		}
	})
	return pr, nil
}

// allocsPer runs fn once to warm up, then again between two memory
// statistics reads, and returns heap allocations per unit.
func allocsPer(units int, fn func()) float64 {
	if units == 0 {
		return 0
	}
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(units)
}

// httpShapes builds v1 request bodies in the workload's shape (single
// queries, or batches of the given size) from the sample's v1 queries,
// with each body's results from the registry.
func httpShapes(reg *serve.Registry, sample []query, batch int) ([][]byte, [][]serve.V1Result) {
	var bodies [][]byte
	var results [][]serve.V1Result
	var cur []query
	flush := func() {
		var body []byte
		if batch == 1 {
			body = cur[0].body()
		} else {
			body = encodeBatch(cur)
		}
		var rs []serve.V1Result
		for _, q := range cur {
			var fan []string
			if q.fed {
				fan = []string{"*"}
			}
			rs = append(rs, reg.DoItem(match.Request{Query: q.text, Domain: q.domain}, fan))
		}
		bodies = append(bodies, body)
		results = append(results, rs)
		cur = nil
	}
	for _, q := range sample {
		if q.v2 {
			continue
		}
		cur = append(cur, q)
		if len(cur) == batch {
			flush()
		}
	}
	return bodies, results
}

// nullWriter is a ResponseWriter that discards the body.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
