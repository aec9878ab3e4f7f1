package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"websyn/internal/match"
)

// Registry is the multi-domain serving tier: one process, many
// structured verticals. Each registered domain owns a complete Server —
// its own generation handle (dictionary, packed fuzzy index, engine,
// entity table, request cache) and, via internal/serve/reload, its own
// snapshot watcher — so movies can hot-swap a new dictionary while
// cameras keeps serving, and a reload failure in one vertical cannot
// touch another.
//
// Request routing on POST /v1/match:
//
//   - "domain": "movies" — exact route to that domain; the response is
//     stamped with the domain that answered.
//   - "domains": ["movies", "cameras"] or ["*"] — fan the query out
//     across the named (or all) domains in parallel and merge the span
//     matches by score into one federated response, every match carrying
//     its domain of origin.
//   - neither field — fan out across every registered domain. With a
//     single registered domain this degenerates to an unstamped exact
//     route, which is how legacy single-snapshot deployments keep their
//     byte-identical responses behind a default domain.
//
// The legacy endpoints (GET /match, POST /match/batch, GET /fuzzy,
// GET /synonyms) route to the default domain, or to ?domain=<name> when
// given. Domains are registered at boot, before Mount; the set is
// immutable while serving (per-domain snapshots hot-swap inside their
// Server instead).
type Registry struct {
	cfg     Config
	start   time.Time
	domains map[string]*Server
	names   []string // registration order — the deterministic fan-out order
	def     string

	v1Reqs    atomic.Uint64
	v1Queries atomic.Uint64
	v2Reqs    atomic.Uint64
	v2Queries atomic.Uint64
	fanouts   atomic.Uint64
	v1Lat     latencyRecorder
	v2Lat     latencyRecorder

	// fedPool recycles the per-request scratch of federated fan-outs
	// (see fedScratch), so steady-state federation does not allocate
	// bookkeeping per query.
	fedPool sync.Pool
}

// NewRegistry returns an empty registry; cfg applies to every domain
// Server subsequently built by Add, and to the registry's own batch
// fan-out pool.
func NewRegistry(cfg Config) *Registry {
	reg := &Registry{
		cfg:     cfg.withDefaults(),
		start:   time.Now(),
		domains: make(map[string]*Server),
	}
	reg.fedPool.New = func() any { return new(fedScratch) }
	return reg
}

// validDomainName rejects names the routing grammar reserves: "*" is
// the fan-out wildcard, '=' and ',' are flag/manifest syntax, and
// whitespace would make URLs and logs ambiguous.
func validDomainName(name string) error {
	if name == "" {
		return fmt.Errorf("serve: empty domain name")
	}
	if name == "*" || strings.ContainsAny(name, "=, \t\n") {
		return fmt.Errorf("serve: invalid domain name %q (no '*', '=', ',' or whitespace)", name)
	}
	return nil
}

// Add builds a Server for one domain from its snapshot and registers it.
// The first domain added becomes the default (see SetDefault). Not safe
// to call once the registry is serving.
func (reg *Registry) Add(name string, snap *Snapshot, meta SnapshotMeta) (*Server, error) {
	if err := validDomainName(name); err != nil {
		return nil, err
	}
	if _, dup := reg.domains[name]; dup {
		return nil, fmt.Errorf("serve: domain %q registered twice", name)
	}
	if snap == nil || snap.Dict == nil {
		return nil, fmt.Errorf("serve: domain %q: nil snapshot", name)
	}
	srv := NewServerWithMeta(snap, reg.cfg, meta)
	reg.domains[name] = srv
	reg.names = append(reg.names, name)
	if reg.def == "" {
		reg.def = name
	}
	return srv, nil
}

// SetDefault names the domain legacy (domainless) endpoints route to.
func (reg *Registry) SetDefault(name string) error {
	if _, ok := reg.domains[name]; !ok {
		return fmt.Errorf("serve: default domain %q not registered (have %s)", name, strings.Join(reg.names, ", "))
	}
	reg.def = name
	return nil
}

// Domain returns the named domain's server.
func (reg *Registry) Domain(name string) (*Server, bool) {
	s, ok := reg.domains[name]
	return s, ok
}

// Default returns the default domain's server (nil before the first Add).
func (reg *Registry) Default() *Server { return reg.domains[reg.def] }

// DefaultName returns the default domain's name.
func (reg *Registry) DefaultName() string { return reg.def }

// Names returns the registered domain names in registration order.
func (reg *Registry) Names() []string {
	return append([]string(nil), reg.names...)
}

// target pairs a domain name with its server for routing.
type target struct {
	name string
	srv  *Server
}

// all returns every domain in registration order.
func (reg *Registry) all() []target {
	out := make([]target, 0, len(reg.names))
	for _, n := range reg.names {
		out = append(out, target{n, reg.domains[n]})
	}
	return out
}

// resolve expands a domains list into targets: "*" means every domain,
// duplicates collapse (first occurrence keeps its position), unknown
// names are an error.
func (reg *Registry) resolve(names []string) ([]target, error) {
	seen := make(map[string]bool, len(names))
	var out []target
	for _, n := range names {
		if n == "*" {
			for _, t := range reg.all() {
				if !seen[t.name] {
					seen[t.name] = true
					out = append(out, t)
				}
			}
			continue
		}
		if seen[n] {
			continue
		}
		srv, ok := reg.domains[n]
		if !ok {
			return nil, fmt.Errorf("unknown domain %q (registered: %s)", n, strings.Join(reg.names, ", "))
		}
		seen[n] = true
		out = append(out, target{n, srv})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("domains resolves to no domain")
	}
	return out, nil
}

// Handler returns the registry's HTTP API (see Mount).
func (reg *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	reg.Mount(mux)
	return mux
}

// Mount registers the multi-domain HTTP API:
//
//	POST /v1/match           — domain-routed and federated matching
//	POST /v2/match           — v1 plus attribute predicates + residual
//	GET  /match?q=           — deprecated: default domain (or ?domain=<name>)
//	POST /match/batch        — deprecated: default domain (or ?domain=<name>)
//	GET  /fuzzy?q=           — deprecated: default domain (or ?domain=<name>)
//	GET  /synonyms?u=        — legacy: default domain (or ?domain=<name>)
//	GET  /statsz             — registry counters + per-domain stats
//	GET  /admin/snapshot     — all domains' provenance (or ?domain=<name>)
//	GET  /healthz            — liveness
//
// POST /admin/reload and GET /admin/reload/status are served per domain
// by the reload subsystem; see internal/serve/reload.Group.Mount.
func (reg *Registry) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/match", reg.handleV1Match)
	mux.HandleFunc("POST /v2/match", reg.handleV2Match)
	mux.HandleFunc("GET /match", deprecated(reg.delegate((*Server).handleMatch)))
	mux.HandleFunc("POST /match/batch", deprecated(reg.delegate((*Server).handleBatch)))
	mux.HandleFunc("GET /fuzzy", deprecated(reg.delegate((*Server).handleFuzzy)))
	mux.HandleFunc("GET /synonyms", reg.delegate((*Server).handleSynonyms))
	mux.HandleFunc("GET /statsz", reg.handleStatsz)
	mux.HandleFunc("GET /admin/snapshot", reg.handleAdminSnapshot)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeText(w, "ok\n")
	})
}

// delegate wraps a Server handler with ?domain= resolution, defaulting
// to the default domain — the legacy endpoints' multi-domain story.
func (reg *Registry) delegate(h func(*Server, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		srv := reg.Default()
		if name := r.URL.Query().Get("domain"); name != "" {
			var ok bool
			if srv, ok = reg.domains[name]; !ok {
				http.Error(w, fmt.Sprintf("unknown domain %q (registered: %s)", name, strings.Join(reg.names, ", ")),
					http.StatusNotFound)
				return
			}
		}
		h(srv, w, r)
	}
}

func (reg *Registry) handleV1Match(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeV1(w, r, v1BodyLimit(reg.cfg.MaxBatch))
	if !ok {
		return
	}
	if req.Domain != "" && len(req.Domains) > 0 {
		writeV1Error(w, http.StatusBadRequest, "domain and domains are mutually exclusive")
		return
	}
	items, status, msg := v1Items(req, reg.cfg.MaxBatch)
	if msg != "" {
		writeV1Error(w, status, "%s", msg)
		return
	}
	// Resolve the batch-level fan-out once; items carrying their own
	// domain (directly or inherited from the top-level field) take an
	// exact route instead. explicit records whether the client asked for
	// domain routing by name — a single-target fan-out only stamps
	// provenance then, so domainless traffic against a single-domain
	// registry stays byte-identical to a standalone server.
	fan := reg.all()
	explicit := len(req.Domains) > 0
	if explicit {
		var err error
		if fan, err = reg.resolve(req.Domains); err != nil {
			writeV1Error(w, http.StatusBadRequest, "%s", err)
			return
		}
	}

	reg.v1Reqs.Add(1)
	reg.v1Queries.Add(uint64(len(items)))
	t0 := time.Now()
	results := make([]V1Result, len(items))
	runPool(reg.cfg.BatchWorkers, len(items), func(i int) {
		results[i] = reg.routeItem(fan, items[i], explicit)
	})
	reg.v1Lat.observe(time.Since(t0))
	writeJSON(w, V1Response{Count: len(results), Results: results})
}

// routeItem answers one item against a resolved fan-out: an item pinned
// to a domain takes an exact (stamped) route, a single-target fan
// degenerates to one route, anything else federates.
func (reg *Registry) routeItem(fan []target, it match.Request, explicit bool) V1Result {
	if it.Domain != "" {
		srv, ok := reg.domains[it.Domain]
		if !ok {
			return V1Result{Error: fmt.Sprintf("unknown domain %q (registered: %s)", it.Domain, strings.Join(reg.names, ", "))}
		}
		return reg.routeOne(target{it.Domain, srv}, it, true)
	}
	if len(fan) == 1 {
		return reg.routeOne(fan[0], it, explicit)
	}
	return reg.federate(fan, it)
}

// DoItem answers one routed /v1/match item programmatically — the entry
// point the fleet wire protocol calls into. domains is the item's
// fan-out list (nil or empty = every registered domain), with the same
// grammar as the HTTP field: names or "*". Routing errors are per-item,
// exactly as the HTTP surface reports them.
func (reg *Registry) DoItem(it match.Request, domains []string) V1Result {
	fan := reg.all()
	explicit := len(domains) > 0
	if explicit {
		var err error
		if fan, err = reg.resolve(domains); err != nil {
			return V1Result{Error: err.Error()}
		}
	}
	return reg.routeItem(fan, it, explicit)
}

// routeOne answers one item on one domain. stamp marks the response with
// the domain that answered; it is false only for domainless traffic on a
// single-domain registry, where legacy byte-identity is the contract.
// Stamping mutates only the response value copy, never cache-shared
// slices, so the cached response stays domain-neutral.
func (reg *Registry) routeOne(t target, it match.Request, stamp bool) V1Result {
	t.srv.routedQueries.Add(1)
	res, cached, err := t.srv.do(it)
	if err != nil {
		return V1Result{Error: err.Error()}
	}
	if stamp {
		res.Domain = t.name
	}
	return V1Result{Response: &res, Cached: cached}
}

// fedLeg is one domain's answer inside a federated fan-out. The
// response may share slices with that domain's request cache:
// read-only.
type fedLeg struct {
	res    match.Response
	cached bool
	err    error
}

// fedScratch is the pooled per-request bookkeeping of a federated
// fan-out. It is cleared before going back to the pool so a parked
// scratch never pins a retired generation's cached responses.
type fedScratch struct {
	legs []fedLeg
}

// inlineFanout is the fan-out width up to which federate runs the legs
// inline on the calling worker instead of dispatching to the pool: a
// cached per-domain match is about a microsecond, far below the cost of
// waking pool workers, and the caller is already one of the batch
// pool's workers (handleV1Match fans items out through runPool).
const inlineFanout = 4

// federate fans one item out across the targets and merges the
// per-domain responses into one: span matches from every domain,
// ordered by score (best evidence first, regardless of vertical), each
// stamped with the domain that produced it. The federated remainder is
// the winning domain's — the leftover text as seen by the vertical with
// the strongest match — or the full query when nothing matched anywhere.
//
// Domain stamping happens while copying each leg's matches into the
// merged response, so the per-domain responses — which may be shared
// with their domain's request cache — are never written to, and the old
// detach-then-stamp double copy is gone. Per-query bookkeeping (the leg
// table) comes from the registry's scratch pool.
func (reg *Registry) federate(targets []target, it match.Request) V1Result {
	reg.fanouts.Add(1)
	t0 := time.Now()
	fs := reg.fedPool.Get().(*fedScratch)
	legs := fs.legs
	if cap(legs) < len(targets) {
		legs = make([]fedLeg, len(targets))
	} else {
		legs = legs[:len(targets)]
	}
	defer func() {
		for i := range legs {
			legs[i] = fedLeg{}
		}
		fs.legs = legs[:0]
		reg.fedPool.Put(fs)
	}()

	if len(targets) <= inlineFanout {
		for i := range targets {
			t := targets[i]
			t.srv.routedQueries.Add(1)
			legs[i].res, legs[i].cached, legs[i].err = t.srv.do(it)
		}
	} else {
		runPool(reg.cfg.BatchWorkers, len(targets), func(i int) {
			t := targets[i]
			t.srv.routedQueries.Add(1)
			legs[i].res, legs[i].cached, legs[i].err = t.srv.do(it)
		})
	}

	// Request validation is domain-independent: an invalid item fails
	// identically everywhere, so the first leg's error speaks for all.
	for i := range legs {
		if legs[i].err != nil {
			return V1Result{Error: legs[i].err.Error()}
		}
	}

	out := match.Response{Query: legs[0].res.Query}
	nMatches, nTrace := 0, 0
	for i := range legs {
		nMatches += len(legs[i].res.Matches)
		nTrace += len(legs[i].res.Trace)
	}
	if nMatches > 0 {
		out.Matches = make([]match.SpanMatch, 0, nMatches)
	}
	if nTrace > 0 {
		out.Trace = make([]match.TraceStep, 0, nTrace)
	}
	allCached := true
	for i := range legs {
		leg := &legs[i]
		name := targets[i].name
		mb := len(out.Matches)
		out.Matches = append(out.Matches, leg.res.Matches...)
		for j := mb; j < len(out.Matches); j++ {
			out.Matches[j].Domain = name
		}
		tb := len(out.Trace)
		out.Trace = append(out.Trace, leg.res.Trace...)
		for j := tb; j < len(out.Trace); j++ {
			out.Trace[j].Domain = name
		}
		out.Timing.SegmentMicros += leg.res.Timing.SegmentMicros
		out.Timing.FuzzyMicros += leg.res.Timing.FuzzyMicros
		allCached = allCached && leg.cached
	}
	sort.SliceStable(out.Matches, func(i, j int) bool {
		a, b := out.Matches[i], out.Matches[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Similarity != b.Similarity {
			return a.Similarity > b.Similarity
		}
		if a.Domain != b.Domain {
			return a.Domain < b.Domain
		}
		return a.Start < b.Start
	})
	// Attributes and residual follow the remainder rule: the winning
	// domain — the vertical that produced the best span match — speaks
	// for the structured part of the query too. Predicates from the
	// other verticals' vocabularies are dropped, never merged: "2008"
	// must not surface as a camera price band just because the cameras
	// domain also ran. With no match anywhere, the first fan-out target
	// (the default domain on an implicit fan) answers.
	winner := 0
	if len(out.Matches) > 0 {
		for i := range targets {
			if targets[i].name == out.Matches[0].Domain {
				winner = i
				break
			}
		}
	}
	out.Remainder = legs[winner].res.Remainder
	if attrs := legs[winner].res.Attributes; len(attrs) > 0 {
		out.Attributes = make([]match.Predicate, len(attrs))
		copy(out.Attributes, attrs)
		for j := range out.Attributes {
			out.Attributes[j].Domain = targets[winner].name
		}
	}
	out.Residual = legs[winner].res.Residual
	out.Timing.TotalMicros = float64(time.Since(t0).Nanoseconds()) / 1e3
	return V1Result{Response: &out, Cached: allCached}
}

// RegistryStats is the JSON shape of the registry's GET /statsz: the
// registry-level routing counters plus every domain's full Stats (each
// domain's cache, dictionary, generation and latency numbers are its
// own — a hot swap in one vertical resets only that vertical's cache
// stats).
type RegistryStats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	DefaultDomain string  `json:"default_domain"`
	DomainCount   int     `json:"domain_count"`
	Requests      struct {
		// V1 counts POST /v1/match requests; V1Queries the items they
		// carried; FanoutQueries the items answered by a multi-domain
		// federated merge. V2/V2Queries count POST /v2/match traffic,
		// omitted (zero) until the first v2 request.
		V1            uint64 `json:"v1"`
		V1Queries     uint64 `json:"v1_queries"`
		V2            uint64 `json:"v2,omitempty"`
		V2Queries     uint64 `json:"v2_queries,omitempty"`
		FanoutQueries uint64 `json:"fanout_queries"`
	} `json:"requests"`
	Latency struct {
		V1 LatencyStats `json:"v1"`
		// V2 appears once /v2/match has served a request.
		V2 *LatencyStats `json:"v2,omitempty"`
	} `json:"latency"`
	Domains map[string]Stats `json:"domains"`
}

// Stats returns a point-in-time view of the registry and all domains.
func (reg *Registry) Stats() RegistryStats {
	var st RegistryStats
	st.UptimeSeconds = time.Since(reg.start).Seconds()
	st.DefaultDomain = reg.def
	st.DomainCount = len(reg.names)
	st.Requests.V1 = reg.v1Reqs.Load()
	st.Requests.V1Queries = reg.v1Queries.Load()
	st.Requests.V2 = reg.v2Reqs.Load()
	st.Requests.V2Queries = reg.v2Queries.Load()
	st.Requests.FanoutQueries = reg.fanouts.Load()
	st.Latency.V1 = reg.v1Lat.snapshot()
	if st.Requests.V2 > 0 {
		v2 := reg.v2Lat.snapshot()
		st.Latency.V2 = &v2
	}
	st.Domains = make(map[string]Stats, len(reg.names))
	for name, srv := range reg.domains {
		st.Domains[name] = srv.Stats()
	}
	return st
}

func (reg *Registry) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, reg.Stats())
}

// SnapshotInfos returns every domain's live generation provenance.
func (reg *Registry) SnapshotInfos() map[string]SnapshotInfo {
	out := make(map[string]SnapshotInfo, len(reg.names))
	for name, srv := range reg.domains {
		out[name] = srv.SnapshotInfo()
	}
	return out
}

// handleAdminSnapshot serves all domains' provenance as a name-keyed
// map, or a single domain's SnapshotInfo with ?domain=<name>.
func (reg *Registry) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) {
	if name := r.URL.Query().Get("domain"); name != "" {
		srv, ok := reg.domains[name]
		if !ok {
			http.Error(w, fmt.Sprintf("unknown domain %q (registered: %s)", name, strings.Join(reg.names, ", ")),
				http.StatusNotFound)
			return
		}
		writeJSON(w, srv.SnapshotInfo())
		return
	}
	writeJSON(w, reg.SnapshotInfos())
}
