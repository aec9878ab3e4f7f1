package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"websyn/internal/match"
	"websyn/internal/rewrite"
	"websyn/internal/textnorm"
)

// Config tunes a Server. The zero value picks sensible production
// defaults; see each field.
type Config struct {
	// CacheSize is the request-cache capacity in entries (across all
	// shards). 0 means DefaultCacheSize; negative disables caching.
	CacheSize int
	// CacheShards is the number of lock stripes the request cache is
	// split into, rounded down to a power of two. 0 means one shard per
	// CPU (GOMAXPROCS), capped so each shard holds at least 8 entries.
	CacheShards int
	// BatchWorkers bounds the worker pool batch requests fan out on.
	// 0 means GOMAXPROCS.
	BatchWorkers int
	// MaxBatch is the largest number of queries one batch request may
	// carry (legacy /match/batch and /v1/match alike). 0 means
	// DefaultMaxBatch.
	MaxBatch int
	// FuzzyLimit is the number of hits /fuzzy returns. 0 means 5.
	FuzzyLimit int
	// MinSim overrides the snapshot's Dice-similarity threshold when
	// positive.
	MinSim float64
}

// Defaults for Config's zero values.
const (
	DefaultCacheSize = 4096
	DefaultMaxBatch  = 1024
)

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.FuzzyLimit <= 0 {
		c.FuzzyLimit = 5
	}
	return c
}

// generation is everything the server derives from one snapshot: the
// compiled dictionary, the trigram fuzzy index, the engine over both,
// the entity/synonym tables, and the request cache (caches never
// outlive the dictionary they were computed against). A generation is
// immutable once installed; hot reload builds a new one off-thread and
// swaps the server's pointer, so every request is answered entirely by
// the generation it loaded first.
type generation struct {
	id         uint64 // 1 for the boot generation, +1 per swap
	dataset    string
	meta       SnapshotMeta
	buildDur   time.Duration
	loadedAt   time.Time
	dict       *match.Dictionary
	fuzzy      *match.FuzzyIndex
	engine     *match.Engine
	canonicals []string       // entity ID -> canonical string
	byNorm     map[string]int // canonical norm -> entity ID
	synonyms   map[string][]string
	cache      *requestCache
	// flight collapses concurrent identical cache misses into one
	// engine run. Like the cache it is generation-scoped: a stale
	// generation's in-flight result can never satisfy a request pinned
	// to a fresh one.
	flight flightGroup
	// scratch pools the per-request match arenas. It lives on the
	// generation, not the server, so a request pinned to an old
	// generation can never hand its scratch — and the engine-owned
	// strings a response aliases — to a request on a new one: arenas
	// retire with the dictionary they matched against.
	scratch sync.Pool // *match.Scratch
}

// SnapshotMeta records the provenance of an installed snapshot, for
// /admin/snapshot and operator logs. All fields are optional.
type SnapshotMeta struct {
	// Path is the snapshot file the state was loaded from; empty for
	// state mined in-process.
	Path string `json:"path,omitempty"`
	// SHA256 is the hex digest of the snapshot file bytes.
	SHA256 string `json:"sha256,omitempty"`
	// Version is the snapshot file layout version; 0 means the state
	// was built in-process (no file).
	Version int `json:"version,omitempty"`
}

// Generation is a fully built, not-yet-installed serving state: the
// output of Server.Prepare and the input of Server.Install. The reload
// subsystem validates one with canary queries (via Engine) before
// swapping it in.
type Generation struct {
	g *generation
}

// Engine returns the generation's match engine, for pre-install
// validation.
func (g *Generation) Engine() *match.Engine { return g.g.engine }

// Dataset returns the data-set name the generation was mined from.
func (g *Generation) Dataset() string { return g.g.dataset }

// Entities returns the size of the generation's entity table.
func (g *Generation) Entities() int { return len(g.g.canonicals) }

// Canonicals returns the generation's entity table (ID -> canonical
// string). Callers must treat it as read-only.
func (g *Generation) Canonicals() []string { return g.g.canonicals }

// Server is the online matching tier: one match.Engine over immutable
// dictionary state, plus a request cache and counters. Every endpoint —
// the versioned /v1/match and the legacy /match, /match/batch and
// /fuzzy adapters — routes through the engine via Server.do. All
// methods are safe for concurrent use.
//
// The snapshot-derived state lives behind an atomic generation handle:
// Prepare builds a new generation from a fresh snapshot off the request
// path and Install swaps it in without dropping traffic (see
// internal/serve/reload for the watcher that drives this).
type Server struct {
	cfg   Config
	gen   atomic.Pointer[generation]
	start time.Time

	matchLat latencyRecorder
	batchLat latencyRecorder
	v1Lat    latencyRecorder
	v2Lat    latencyRecorder

	matchReqs    atomic.Uint64
	batchReqs    atomic.Uint64
	batchQueries atomic.Uint64
	fuzzyReqs    atomic.Uint64
	synReqs      atomic.Uint64
	v1Reqs       atomic.Uint64
	v1Queries    atomic.Uint64
	v2Reqs       atomic.Uint64
	v2Queries    atomic.Uint64
	// routedQueries counts queries delivered to this server by a domain
	// Registry (exact routes and federated fan-out legs alike); always
	// zero on a standalone single-snapshot server.
	routedQueries atomic.Uint64
}

// NewServer builds the serving state from a snapshot. When the snapshot
// embeds a packed fuzzy index (format version 2) the index is rebuilt
// from its posting slabs with pure array work; otherwise — version 1
// snapshots, or mine-at-startup — the index is constructed from the
// dictionary here.
func NewServer(snap *Snapshot, cfg Config) *Server {
	return NewServerWithMeta(snap, cfg, SnapshotMeta{})
}

// NewServerWithMeta is NewServer recording where the boot snapshot came
// from (file path, SHA-256), so /admin/snapshot reports provenance from
// generation 1 instead of only after the first hot swap.
func NewServerWithMeta(snap *Snapshot, cfg Config, meta SnapshotMeta) *Server {
	s := &Server{cfg: cfg.withDefaults(), start: time.Now()}
	g, err := s.Prepare(snap, meta)
	if err != nil {
		// Only a nil snapshot/dictionary reaches here — a programming
		// error, not an input error.
		panic(err)
	}
	g.g.id = 1
	g.g.loadedAt = time.Now()
	s.gen.Store(g.g)
	return s
}

// Prepare builds a complete serving generation from a snapshot — the
// expensive part of a reload (fuzzy-index assembly, entity-table indexing) —
// without touching the live state. Install swaps the result in. The
// returned generation carries meta for /admin/snapshot; a zero
// meta.Version falls back to the snapshot's own Version field.
func (s *Server) Prepare(snap *Snapshot, meta SnapshotMeta) (*Generation, error) {
	if snap == nil || snap.Dict == nil {
		return nil, fmt.Errorf("serve: nil snapshot")
	}
	if meta.Version == 0 {
		meta.Version = snap.Version
	}
	t0 := time.Now()
	cfg := s.cfg
	minSim := snap.MinSim
	if cfg.MinSim > 0 {
		minSim = cfg.MinSim
	}
	var fuzzy *match.FuzzyIndex
	if snap.Fuzzy != nil {
		// The index shares the packed slabs; a mapped snapshot's stay in
		// the page cache, shared across every process serving the file.
		fi, err := snap.Dict.NewFuzzyIndexFromPacked(snap.Fuzzy, minSim)
		if err != nil {
			// A checksummed snapshot should never get here; fall back to
			// a clean rebuild rather than refusing to serve.
			log.Printf("serve: rebuilding fuzzy index, embedded one unusable: %v", err)
		} else {
			fuzzy = fi
		}
	}
	if fuzzy == nil {
		fuzzy = snap.Dict.NewFuzzyIndex(minSim)
	}
	engine := match.NewEngine(snap.Dict, fuzzy, snap.Canonicals, minSim)
	if snap.Vocab != nil {
		// The attribute rewriter only runs on requests that opt in
		// (Rewrite, set by the /v2 surface), so attaching it cannot
		// change a /v1 response.
		engine.SetRewriter(rewrite.NewRewriter(snap.Vocab, minSim))
	}
	g := &generation{
		dataset:    snap.Dataset,
		meta:       meta,
		dict:       snap.Dict,
		fuzzy:      fuzzy,
		engine:     engine,
		canonicals: snap.Canonicals,
		byNorm:     make(map[string]int, len(snap.Canonicals)),
		synonyms:   snap.Synonyms,
		cache:      newRequestCache(cfg.CacheSize, cfg.CacheShards),
	}
	for id, c := range snap.Canonicals {
		g.byNorm[textnorm.Normalize(c)] = id
	}
	g.scratch.New = func() any { return match.NewScratch() }
	g.buildDur = time.Since(t0)
	return &Generation{g: g}, nil
}

// Install atomically swaps a prepared generation into the serving path.
// In-flight requests finish on the generation they started with; new
// requests see the new dictionary, engine and a fresh (empty) request
// cache. Install returns the new generation number.
func (s *Server) Install(g *Generation) uint64 {
	ng := g.g
	ng.loadedAt = time.Now()
	for {
		old := s.gen.Load()
		ng.id = old.id + 1 // not yet visible to readers: safe to set
		if s.gen.CompareAndSwap(old, ng) {
			return ng.id
		}
	}
}

// Generation returns the current generation number (1 at boot, +1 per
// Install) and the number of snapshot swaps performed since boot. The
// swap count is the generation number minus one — derived, so the two
// can never disagree.
func (s *Server) Generation() (id, swaps uint64) {
	id = s.gen.Load().id
	return id, id - 1
}

// Engine returns the current generation's match engine — the instance
// every endpoint routes through right now. Callers get uncached,
// unmetered access; across a hot reload a retained pointer goes stale,
// so long-lived callers should re-fetch per request.
func (s *Server) Engine() *match.Engine { return s.gen.Load().engine }

// appendRequestKey appends the cache key of a defaulted request to
// dst: every field that shapes the response, plus the normalized query
// (so "Indy 4" and "indy   4" share an entry; norm is the arena's
// space-joined token sequence). Append-style so the cache-hit fast
// path builds the key into a stack buffer with zero allocations — the
// cache and flight group borrow the bytes and copy only when they must
// retain them (a miss).
//
//websyn:hotpath
func appendRequestKey(dst []byte, req match.Request, norm string) []byte {
	dst = append(dst, string(req.Mode)...)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(req.TopK), 10)
	dst = append(dst, '|')
	if req.MinSim == 0 {
		dst = append(dst, '0')
	} else {
		dst = strconv.AppendFloat(dst, req.MinSim, 'g', -1, 64)
	}
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(req.MaxSpanTokens), 10)
	dst = append(dst, '|')
	if req.Explain {
		dst = append(dst, 'e')
	}
	if req.Rewrite {
		// /v2 responses carry attributes; they must not share cache
		// entries with the /v1 shape of the same query.
		dst = append(dst, 'r')
	}
	dst = append(dst, '|')
	dst = append(dst, norm...)
	return dst
}

// doGenView answers one request on a pinned generation through the
// pooled match arena, passing the response to visit instead of
// returning it. The response is read-only and only valid during the
// visit call (it may alias the generation's scratch arena); stable
// reports whether it is instead backed by stable heap memory (a cache
// hit, or the clone made to populate the cache) that survives the call
// but still must not be mutated. visit runs at most once, before
// doGenView returns.
//
// This is the allocation-free steady state: with caching disabled, a
// request performs zero heap allocations end to end; with caching on, a
// hit builds its key in a stack buffer and allocates nothing, and the
// only per-miss allocations are the retained key copies and the one
// stable clone the cache keeps.
//
// Misses are collapsed through the generation's flight group: of K
// concurrent identical uncached requests, exactly one (the leader) runs
// the engine; the rest block until the leader publishes its clone and
// share it. The leader stores the clone in the cache before finishing,
// so a request arriving after the flight ends hits the cache instead of
// starting a new run.
//
//websyn:hotpath
func (s *Server) doGenView(g *generation, req match.Request, visit func(res *match.Response, cached, stable bool)) error {
	req = req.WithDefaults()
	if err := req.Validate(); err != nil {
		return err
	}
	sc := g.scratch.Get().(*match.Scratch)
	defer g.scratch.Put(sc)
	sc.Tokenize(req.Query)
	if g.cache == nil {
		res, err := g.engine.MatchPrepared(req, sc)
		if err != nil {
			return err
		}
		visit(res, false, false)
		return nil
	}
	var kb [192]byte
	key := appendRequestKey(kb[:0], req, sc.Norm())
	if res, ok := g.cache.Get(key); ok {
		visit(res, true, true)
		return nil
	}
	c, leader := g.flight.join(key)
	if !leader {
		res, err := c.wait()
		if err != nil {
			return err
		}
		g.flight.hits.Add(1)
		visit(&res, false, true)
		return nil
	}
	res, err := g.engine.MatchPrepared(req, sc)
	if err != nil {
		g.flight.finish(c, match.Response{}, err)
		return err
	}
	stable := match.CloneResponse(res)
	g.cache.Put(key, stable)
	g.flight.finish(c, stable, nil)
	visit(&stable, false, true)
	return nil
}

// DoView is the view-based form of Do: cache-backed, identical
// semantics, but the response is passed to visit instead of copied out,
// so steady-state callers (benchmarks, proxies that marshal in place)
// skip the defensive copy. The response is read-only and valid only
// during visit — it may alias a pooled arena that the next request
// rewrites; retain it with match.CloneResponse. cached reports a
// request-cache hit.
func (s *Server) DoView(req match.Request, visit func(res *match.Response, cached bool)) error {
	return s.doGenView(s.gen.Load(), req, func(res *match.Response, cached, _ bool) {
		visit(res, cached)
	})
}

// do answers one request through the cache and the engine. The returned
// response may share slices with the cache: treat it as read-only (Do
// detaches for public callers). The bool reports a cache hit; a cached
// response carries the Timing of the request that computed it.
func (s *Server) do(req match.Request) (match.Response, bool, error) {
	return s.doGen(s.gen.Load(), req)
}

// doGen is do pinned to one generation. Handlers load the generation
// once per HTTP request and thread it through, so a whole request —
// every item of a batch included — is answered by one consistent
// dictionary even when a hot reload lands mid-request.
func (s *Server) doGen(g *generation, req match.Request) (match.Response, bool, error) {
	var out match.Response
	var hit bool
	err := s.doGenView(g, req, func(res *match.Response, cached, stable bool) {
		hit = cached
		if stable {
			out = *res
		} else {
			// Arena-backed (cache disabled): clone before the scratch is
			// pooled again.
			out = match.CloneResponse(res)
		}
	})
	if err != nil {
		return match.Response{}, false, err
	}
	return out, hit, nil
}

// Do is the public one-call form of the unified API: cache-backed,
// identical semantics to POST /v1/match with a single query. The
// response is detached from the cache and safe to mutate.
func (s *Server) Do(req match.Request) (match.Response, error) {
	res, _, err := s.do(req)
	if err != nil {
		return match.Response{}, err
	}
	return detachResponse(res), nil
}

// DoItem answers one routed /v1/match item programmatically — the entry
// point the fleet wire protocol calls into. A single-snapshot server has
// exactly one dictionary, so domain routing (a pinned domain or a
// domains fan-out list) is rejected with the same message the HTTP
// handler uses; errors are per-item, never transport-level. The returned
// response may share slices with the request cache: read-only.
func (s *Server) DoItem(it match.Request, domains []string) V1Result {
	if len(domains) > 0 {
		return V1Result{Error: "domains requires a multi-domain server (matchd -snapshot name=path)"}
	}
	if it.Domain != "" {
		return V1Result{Error: fmt.Sprintf("domain %q: domain routing requires a multi-domain server (matchd -snapshot name=path)", it.Domain)}
	}
	s.routedQueries.Add(1)
	res, cached, err := s.do(it)
	if err != nil {
		return V1Result{Error: err.Error()}
	}
	return V1Result{Response: &res, Cached: cached}
}

// detachResponse deep-copies the slices a caller could mutate, so
// neither the caller nor the cache can corrupt the other.
func detachResponse(r match.Response) match.Response {
	if r.Matches != nil {
		r.Matches = append([]match.SpanMatch(nil), r.Matches...)
		for i := range r.Matches {
			if alts := r.Matches[i].Alternates; alts != nil {
				r.Matches[i].Alternates = append([]match.Alternate(nil), alts...)
			}
		}
	}
	if r.Trace != nil {
		r.Trace = append([]match.TraceStep(nil), r.Trace...)
	}
	if r.Attributes != nil {
		r.Attributes = append([]match.Predicate(nil), r.Attributes...)
	}
	return r
}

// runPool applies fn to every index in [0, n) on a bounded worker pool.
func (s *Server) runPool(n int, fn func(i int)) {
	runPool(s.cfg.BatchWorkers, n, fn)
}

// runPool is the pool shared by Server batches and Registry fan-outs.
func runPool(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Workers claim fixed-size chunks of the index space, not single
	// indexes: one atomic RMW per chunk instead of per item. With short
	// per-item work (a cached match is under a microsecond) a per-item
	// counter serializes every worker on one cache line and flattens
	// batch throughput beyond a few workers. Chunks of n/(workers*8)
	// keep ~8 claims per worker for tail balance.
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				end := int(next.Add(int64(chunk)))
				start := end - chunk
				if start >= n {
					return
				}
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// ---- Legacy compatibility surface ----
//
// MatchResult/MatchedSpan/FuzzyResult/FuzzyHit are the pre-v1 JSON
// shapes. The legacy endpoints keep them byte-for-byte by converting
// engine responses; new clients should use POST /v1/match.

// MatchResult is the JSON shape of one matched query (GET /match, and
// one element of POST /match/batch).
type MatchResult struct {
	Query     string        `json:"query"`
	Matches   []MatchedSpan `json:"matches"`
	Remainder string        `json:"remainder"`
	// Cached reports whether this response came from the request cache.
	Cached bool `json:"cached,omitempty"`
}

// MatchedSpan is one entity mention inside a matched query.
type MatchedSpan struct {
	Canonical string  `json:"canonical"`
	EntityID  int     `json:"entity_id"`
	Span      string  `json:"span"`
	Score     float64 `json:"score"`
	Source    string  `json:"source"`
	Corrected bool    `json:"corrected,omitempty"`
}

// legacyMatchResult converts an engine response to the legacy /match
// shape.
func legacyMatchResult(res match.Response, cached bool) MatchResult {
	out := MatchResult{Query: res.Query, Remainder: res.Remainder, Cached: cached}
	for _, m := range res.Matches {
		out.Matches = append(out.Matches, MatchedSpan{
			Canonical: m.Canonical,
			EntityID:  m.EntityID,
			Span:      m.Span,
			Score:     m.Score,
			Source:    m.Source,
			Corrected: m.Corrected,
		})
	}
	return out
}

// Match segments one query against the dictionary in the legacy
// (segmentation-only) mode, consulting the request cache first.
func (s *Server) Match(query string) MatchResult {
	return s.matchGen(s.gen.Load(), query)
}

// matchGen is Match pinned to one generation (see doGen).
func (s *Server) matchGen(g *generation, query string) MatchResult {
	res, cached, err := s.doGen(g, match.Request{Query: query, Mode: match.ModeSegment, TopK: 1})
	if err != nil {
		// Only an empty query reaches here; the legacy shape for it is an
		// empty segmentation.
		return MatchResult{}
	}
	return legacyMatchResult(res, cached)
}

// MatchBatch segments many queries with a bounded worker pool, returning
// results in input order. The whole batch runs against one generation:
// a hot reload mid-batch cannot mix dictionaries within one response.
func (s *Server) MatchBatch(queries []string) []MatchResult {
	g := s.gen.Load()
	out := make([]MatchResult, len(queries))
	s.runPool(len(queries), func(i int) {
		out[i] = s.matchGen(g, queries[i])
	})
	return out
}

// Handler returns the HTTP API:
//
//	POST /v1/match          — unified match API: single + batch, all
//	                          modes, explain traces (see docs/API.md)
//	POST /v2/match          — v1 plus the structured rewrite stage:
//	                          typed attribute predicates + residual
//	GET  /match?q=<query>   — deprecated: segment one query
//	POST /match/batch       — deprecated: segment many queries (JSON body)
//	GET  /fuzzy?q=<query>   — deprecated: whole-string fuzzy lookup
//	GET  /synonyms?u=<name> — mined synonyms of a canonical string
//	GET  /statsz            — cache, dictionary and latency stats
//	GET  /admin/snapshot    — generation, snapshot provenance, swap count
//	GET  /healthz           — liveness
//
// POST /admin/reload is served by the reload subsystem; see
// internal/serve/reload.Reloader.Mount.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Mount(mux)
	return mux
}

// Mount registers the server's endpoints on an existing mux, so callers
// composing extra routes (the reload admin surface) share one router.
// The pre-v1 adapters (/match, /match/batch, /fuzzy) are mounted behind
// the deprecation shim: same bytes, plus Deprecation/Sunset headers
// pointing clients at the versioned surface.
func (s *Server) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/match", s.handleV1Match)
	mux.HandleFunc("POST /v2/match", s.handleV2Match)
	mux.HandleFunc("GET /match", deprecated(s.handleMatch))
	mux.HandleFunc("POST /match/batch", deprecated(s.handleBatch))
	mux.HandleFunc("GET /fuzzy", deprecated(s.handleFuzzy))
	mux.HandleFunc("GET /synonyms", s.handleSynonyms)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /admin/snapshot", s.handleAdminSnapshot)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeText(w, "ok\n")
	})
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	s.matchReqs.Add(1)
	t0 := time.Now()
	res := s.Match(q)
	s.matchLat.observe(time.Since(t0))
	writeJSON(w, res)
}

// BatchRequest is the JSON body of POST /match/batch.
type BatchRequest struct {
	Queries []string `json:"queries"`
}

// BatchResponse is the JSON shape of POST /match/batch.
type BatchResponse struct {
	Count   int           `json:"count"`
	Results []MatchResult `json:"results"`
}

// bodyLimit scales the request-body cap with the configured batch size
// (queries are short; 512 bytes each is generous) so a raised -max-batch
// is not silently capped by a byte limit.
func (s *Server) bodyLimit() int64 {
	return v1BodyLimit(s.cfg.MaxBatch)
}

// v1BodyLimit is the shared request-body cap formula (Server and
// Registry must agree, or the differential guarantees break).
func v1BodyLimit(maxBatch int) int64 {
	return int64(1<<20) + 512*int64(maxBatch)
}

// V1BodyLimit is the /v1/match request-body cap for a given batch
// limit — exported so the fleet router applies the same cap as the
// replicas behind it.
func V1BodyLimit(maxBatch int) int64 { return v1BodyLimit(maxBatch) }

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.bodyLimit()))
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad JSON body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Queries) == 0 {
		http.Error(w, "empty queries array", http.StatusBadRequest)
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		http.Error(w, fmt.Sprintf("batch of %d exceeds limit %d", len(req.Queries), s.cfg.MaxBatch),
			http.StatusRequestEntityTooLarge)
		return
	}
	s.batchReqs.Add(1)
	s.batchQueries.Add(uint64(len(req.Queries)))
	t0 := time.Now()
	results := s.MatchBatch(req.Queries)
	s.batchLat.observe(time.Since(t0))
	writeJSON(w, BatchResponse{Count: len(results), Results: results})
}

// FuzzyResult is the JSON shape of /fuzzy.
type FuzzyResult struct {
	Query string     `json:"query"`
	Hits  []FuzzyHit `json:"hits"`
}

// FuzzyHit is one whole-string fuzzy hit.
type FuzzyHit struct {
	Text       string  `json:"text"`
	Similarity float64 `json:"similarity"`
	Canonical  string  `json:"canonical"`
	EntityID   int     `json:"entity_id"`
}

func (s *Server) handleFuzzy(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	s.fuzzyReqs.Add(1)
	res := FuzzyResult{Query: q}
	limit := s.cfg.FuzzyLimit
	if limit > match.MaxTopK {
		limit = match.MaxTopK
	}
	eres, _, err := s.do(match.Request{Query: q, Mode: match.ModeFuzzy, TopK: limit})
	if err == nil {
		for _, m := range eres.Matches {
			res.Hits = append(res.Hits, FuzzyHit{
				Text:       m.Span,
				Similarity: m.Similarity,
				Canonical:  m.Canonical,
				EntityID:   m.EntityID,
			})
		}
	}
	writeJSON(w, res)
}

// SynonymsResult is the JSON shape of /synonyms.
type SynonymsResult struct {
	Input    string   `json:"input"`
	Synonyms []string `json:"synonyms"`
}

func (s *Server) handleSynonyms(w http.ResponseWriter, r *http.Request) {
	u := r.URL.Query().Get("u")
	if u == "" {
		http.Error(w, "missing u parameter", http.StatusBadRequest)
		return
	}
	s.synReqs.Add(1)
	g := s.gen.Load()
	norm := textnorm.Normalize(u)
	id, ok := g.byNorm[norm]
	if !ok {
		http.Error(w, "unknown canonical string", http.StatusNotFound)
		return
	}
	writeJSON(w, SynonymsResult{Input: g.canonicals[id], Synonyms: g.synonyms[norm]})
}

// Stats is the JSON shape of /statsz.
type Stats struct {
	Dataset       string  `json:"dataset"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Generation is the serving generation: 1 at boot, +1 per snapshot
	// hot-swap. Swaps counts the swaps since boot (Generation - 1).
	Generation uint64 `json:"generation"`
	Swaps      uint64 `json:"swaps"`
	// SnapshotVersion is the layout version of the installed snapshot
	// file (0 when the dictionary was mined in-process).
	SnapshotVersion int `json:"snapshot_version,omitempty"`
	Dictionary      struct {
		Entries      int `json:"entries"`
		Entities     int `json:"entities"`
		FuzzyStrings int `json:"fuzzy_strings"`
	} `json:"dictionary"`
	Cache    CacheStats `json:"cache"`
	Requests struct {
		Match        uint64 `json:"match"`
		Batch        uint64 `json:"batch"`
		BatchQueries uint64 `json:"batch_queries"`
		Fuzzy        uint64 `json:"fuzzy"`
		Synonyms     uint64 `json:"synonyms"`
		V1           uint64 `json:"v1"`
		V1Queries    uint64 `json:"v1_queries"`
		// V2/V2Queries count POST /v2/match traffic; omitted (zero)
		// until the first v2 request, so the legacy /statsz shape is
		// unchanged for v1-only deployments.
		V2        uint64 `json:"v2,omitempty"`
		V2Queries uint64 `json:"v2_queries,omitempty"`
		// RoutedQueries counts queries a domain Registry delivered to
		// this server; omitted (zero) on standalone servers, so the
		// legacy /statsz shape is unchanged.
		RoutedQueries uint64 `json:"routed_queries,omitempty"`
	} `json:"requests"`
	Latency struct {
		Match LatencyStats `json:"match"`
		Batch LatencyStats `json:"batch"`
		V1    LatencyStats `json:"v1"`
		// V2 appears once /v2/match has served a request.
		V2 *LatencyStats `json:"v2,omitempty"`
	} `json:"latency"`
}

// Stats returns a point-in-time view of the server's counters. Cache
// stats are the current generation's: a hot reload installs a fresh
// cache, so they restart at zero after a swap.
func (s *Server) Stats() Stats {
	g := s.gen.Load()
	var st Stats
	st.Dataset = g.dataset
	st.UptimeSeconds = time.Since(s.start).Seconds()
	st.Generation = g.id
	st.Swaps = g.id - 1
	st.SnapshotVersion = g.meta.Version
	st.Dictionary.Entries = g.dict.Len()
	st.Dictionary.Entities = len(g.canonicals)
	st.Dictionary.FuzzyStrings = g.fuzzy.Len()
	st.Cache = g.cache.Stats()
	st.Cache.SingleflightHits = g.flight.hits.Load()
	st.Cache.SingleflightShared = g.flight.shared.Load()
	st.Requests.Match = s.matchReqs.Load()
	st.Requests.Batch = s.batchReqs.Load()
	st.Requests.BatchQueries = s.batchQueries.Load()
	st.Requests.Fuzzy = s.fuzzyReqs.Load()
	st.Requests.Synonyms = s.synReqs.Load()
	st.Requests.V1 = s.v1Reqs.Load()
	st.Requests.V1Queries = s.v1Queries.Load()
	st.Requests.V2 = s.v2Reqs.Load()
	st.Requests.V2Queries = s.v2Queries.Load()
	st.Requests.RoutedQueries = s.routedQueries.Load()
	st.Latency.Match = s.matchLat.snapshot()
	st.Latency.Batch = s.batchLat.snapshot()
	st.Latency.V1 = s.v1Lat.snapshot()
	if st.Requests.V2 > 0 {
		v2 := s.v2Lat.snapshot()
		st.Latency.V2 = &v2
	}
	return st
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Stats())
}

// SnapshotInfo is the JSON shape of GET /admin/snapshot: which
// dictionary generation is live and where it came from.
type SnapshotInfo struct {
	// Generation is 1 for the boot snapshot and increments on every
	// hot swap; Swaps is the number of swaps since boot.
	Generation uint64 `json:"generation"`
	Swaps      uint64 `json:"swaps"`
	Dataset    string `json:"dataset"`
	// Snapshot is the provenance of the installed file (path, SHA-256,
	// layout version); zero-valued for in-process mined state.
	Snapshot SnapshotMeta `json:"snapshot"`
	// BuildMillis is how long Prepare took to assemble this generation
	// (fuzzy-index assembly, entity indexing) before it was swapped in.
	BuildMillis float64 `json:"build_ms"`
	// LoadedAt is when the generation was installed.
	LoadedAt    time.Time `json:"loaded_at"`
	Entities    int       `json:"entities"`
	DictEntries int       `json:"dict_entries"`
}

// SnapshotInfo returns the live generation's provenance.
func (s *Server) SnapshotInfo() SnapshotInfo {
	g := s.gen.Load()
	return SnapshotInfo{
		Generation:  g.id,
		Swaps:       g.id - 1,
		Dataset:     g.dataset,
		Snapshot:    g.meta,
		BuildMillis: float64(g.buildDur.Nanoseconds()) / 1e6,
		LoadedAt:    g.loadedAt,
		Entities:    len(g.canonicals),
		DictEntries: g.dict.Len(),
	}
}

func (s *Server) handleAdminSnapshot(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.SnapshotInfo())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("serve: encoding response: %v", err)
	}
}

// writeText writes a small plain-text body (healthz and friends),
// logging a failed write like writeJSON does.
func writeText(w http.ResponseWriter, body string) {
	if _, err := io.WriteString(w, body); err != nil {
		log.Printf("serve: writing response: %v", err)
	}
}
