package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"websyn/internal/loadtest"
	"websyn/internal/rng"
	"websyn/internal/serve"
	"websyn/internal/textnorm"
)

// want is one acceptable answer for a labelled query: an entity of a
// domain. A query is recalled when any of its wants appears among the
// response's matches.
type want struct {
	domain string
	id     int
}

// query is one labelled request item.
type query struct {
	text   string
	class  string // loadtest.Class*
	domain string // pinned domain; "" when federated
	fed    bool   // sent with domains: ["*"]
	v2     bool   // attributes class: sent to /v2/match
	wants  []want // nil for noise
}

// key identifies a query as the server's request cache sees it: the
// same text on the same route and API version.
func (q *query) key() string {
	route := q.domain
	if q.fed {
		route = "*"
	}
	v := "1"
	if q.v2 {
		v = "2"
	}
	return v + "\x00" + route + "\x00" + q.text
}

// body is the single-query request body.
func (q *query) body() []byte {
	type single struct {
		Query   string   `json:"query"`
		Domain  string   `json:"domain,omitempty"`
		Domains []string `json:"domains,omitempty"`
	}
	s := single{Query: q.text, Domain: q.domain}
	if q.fed {
		s.Domains = []string{"*"}
	}
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // strings always marshal
	}
	return b
}

// domainIndex inverts loadtest's class generators for one domain, so
// each generated query can be traced back to the dictionary string it
// was made from and labelled with that string's entities.
type domainIndex struct {
	snap    *serve.Snapshot
	sources map[string]bool     // normalized canonicals and synonyms
	concat  map[string][]string // space-free form -> sources
	dels    map[string][]string // one-byte deletion -> sources
}

func newDomainIndex(snap *serve.Snapshot) *domainIndex {
	ix := &domainIndex{
		snap:    snap,
		sources: map[string]bool{},
		concat:  map[string][]string{},
		dels:    map[string][]string{},
	}
	add := func(s string) {
		n := textnorm.Normalize(s)
		if n == "" || ix.sources[n] {
			return
		}
		ix.sources[n] = true
		if strings.Contains(n, " ") {
			c := strings.ReplaceAll(n, " ", "")
			ix.concat[c] = append(ix.concat[c], n)
		}
		for i := 0; i < len(n); i++ {
			d := n[:i] + n[i+1:]
			ix.dels[d] = append(ix.dels[d], n)
		}
	}
	for _, c := range snap.Canonicals {
		add(c)
	}
	for _, syns := range snap.Synonyms {
		for _, s := range syns {
			add(s)
		}
	}
	return ix
}

// longestSource is the longest token prefix of text that is a source
// string: exact queries are source + intent word, attribute queries
// source + attribute phrase.
func (ix *domainIndex) longestSource(text string) []string {
	toks := strings.Fields(text)
	for n := len(toks); n > 0; n-- {
		if s := strings.Join(toks[:n], " "); ix.sources[s] {
			return []string{s}
		}
	}
	return nil
}

// typoSources are the sources one drop, duplicate or adjacent
// transposition away from t: loadtest's three typo edits.
func (ix *domainIndex) typoSources(t string) []string {
	var out []string
	for _, s := range ix.dels[t] { // t dropped one byte of s
		out = append(out, s)
	}
	for i := 1; i < len(t); i++ { // t duplicated byte i-1 of s
		if t[i] == t[i-1] {
			if s := t[:i] + t[i+1:]; ix.sources[s] {
				out = append(out, s)
			}
		}
	}
	b := []byte(t) // t swapped two adjacent bytes of s
	for i := 0; i+1 < len(b); i++ {
		if b[i] == b[i+1] {
			continue
		}
		b[i], b[i+1] = b[i+1], b[i]
		if ix.sources[string(b)] {
			out = append(out, string(b))
		}
		b[i], b[i+1] = b[i+1], b[i]
	}
	return out
}

// sourcesOf recovers the source strings a query of the given class was
// generated from.
func (ix *domainIndex) sourcesOf(class, text string) []string {
	switch class {
	case loadtest.ClassExact, loadtest.ClassAttributes:
		return ix.longestSource(text)
	case loadtest.ClassSpanFuzzy:
		first, _, _ := strings.Cut(text, " ")
		return ix.concat[first]
	case loadtest.ClassTypo:
		return ix.typoSources(text)
	}
	return nil
}

// wantsOf labels a query with the entities Dict.Lookup gives for its
// source strings.
func (ix *domainIndex) wantsOf(domain, class, text string) []want {
	var out []want
	seen := map[int]bool{}
	for _, src := range ix.sourcesOf(class, text) {
		for _, e := range ix.snap.Dict.Lookup(src) {
			if !seen[e.EntityID] {
				seen[e.EntityID] = true
				out = append(out, want{domain, e.EntityID})
			}
		}
	}
	return out
}

// pool is the seeded set of distinct labelled queries both streams draw
// from: loadtest.FromSnapshots' class mix over every domain, with the
// same 1-in-8 federation, deduplicated by cache key.
type pool struct {
	queries    []query
	bodies     [][]byte // single-query request body of each query
	unlabelled int      // non-noise queries whose source could not be recovered (dropped)
}

func buildPool(snaps map[string]*serve.Snapshot, seed uint64) (*pool, error) {
	w, err := loadtest.FromSnapshots(snaps, seed)
	if err != nil {
		return nil, err
	}
	idx := map[string]*domainIndex{}
	var domains []string
	for d, s := range snaps {
		idx[d] = newDomainIndex(s)
		domains = append(domains, d)
	}
	sort.Strings(domains)

	p := &pool{}
	seen := map[string]bool{}
	for _, lq := range w.Queries {
		q := query{
			text:  textnorm.Normalize(lq.Text),
			class: lq.Class,
			fed:   lq.Domain == loadtest.FederatedDomain,
			v2:    lq.Class == loadtest.ClassAttributes,
		}
		if !q.fed {
			q.domain = lq.Domain
		}
		if q.text == "" || seen[q.key()] {
			continue
		}
		if q.class != loadtest.ClassNoise {
			// A federated query came from one domain but may be answered
			// by any: label it against every domain that explains it.
			for _, d := range domains {
				if q.fed || d == q.domain {
					q.wants = append(q.wants, idx[d].wantsOf(d, q.class, q.text)...)
				}
			}
			if len(q.wants) == 0 {
				p.unlabelled++
				continue
			}
		}
		seen[q.key()] = true
		p.queries = append(p.queries, q)
		p.bodies = append(p.bodies, q.body())
	}
	if len(p.queries) == 0 {
		return nil, fmt.Errorf("empty query pool")
	}
	return p, nil
}

// headStream draws n requests from the pool with Zipf(1) popularity
// over a seeded ranking, so most requests repeat a popular query.
func (p *pool) headStream(seed uint64, n int) []int {
	src := rng.New(seed ^ 0x68656164)
	rank := src.Perm(len(p.queries))
	z := rng.NewZipf(len(p.queries), 1.0)
	out := make([]int, n)
	for i := range out {
		out[i] = rank[z.Sample(src)]
	}
	return out
}

// places are the location contexts tail queries append ("... near
// boston"), the paper's "indy 4 near san fran" shape. Places whose
// tokens occur in a dictionary are dropped, so a context never adds a
// match of its own.
var places = []string{
	"boston", "seattle", "denver", "austin", "chicago", "portland", "atlanta",
	"phoenix", "houston", "dallas", "miami", "orlando", "tampa", "detroit",
	"cleveland", "pittsburgh", "baltimore", "raleigh", "nashville", "memphis",
	"louisville", "omaha", "tulsa", "wichita", "albuquerque", "tucson",
	"sacramento", "fresno", "oakland", "san jose", "san diego", "san fran",
	"los angeles", "las vegas", "salt lake", "boise", "spokane", "anchorage",
	"honolulu", "milwaukee", "madison", "minneapolis", "st paul", "des moines",
	"kansas city", "st louis", "indianapolis", "columbus", "cincinnati",
	"buffalo", "rochester", "albany", "hartford", "providence", "newark",
	"jersey city", "richmond", "norfolk", "charlotte", "savannah",
	"jacksonville", "birmingham", "new orleans", "little rock", "el paso",
	"toronto", "montreal", "vancouver", "calgary", "ottawa", "london",
	"dublin", "berlin", "munich", "madrid", "lisbon", "vienna", "prague",
}

var preps = []string{"near", "in", "around", "from"}

// contexts is every preposition x place phrase whose tokens no domain's
// dictionary contains.
func contexts(snaps map[string]*serve.Snapshot) []string {
	var out []string
	for _, place := range places {
		ok := true
		for _, tok := range strings.Fields(place) {
			for _, s := range snaps {
				if s.Dict.HasToken(tok) {
					ok = false
				}
			}
		}
		if !ok {
			continue
		}
		for _, p := range preps {
			out = append(out, p+" "+place)
		}
	}
	return out
}

// tailStream yields never-repeating queries: the k-th is a pool query
// plus a location context, and no (pool query, context) pair recurs
// within len(pool) x len(contexts) items. Labels carry over from the
// pool query, since the context matches nothing.
type tailStream struct {
	p      *pool
	ctx    []string
	order  []int
	offset []int
}

func newTailStream(p *pool, ctx []string, seed uint64) *tailStream {
	src := rng.New(seed ^ 0x7461696c)
	t := &tailStream{p: p, ctx: ctx, order: src.Perm(len(p.queries)), offset: make([]int, len(p.queries))}
	for i := range t.offset {
		t.offset[i] = src.Intn(len(ctx))
	}
	return t
}

// capacity is the number of distinct queries the stream can yield.
func (t *tailStream) capacity() int { return len(t.order) * len(t.ctx) }

func (t *tailStream) at(k int) query {
	base := t.order[k%len(t.order)]
	round := k / len(t.order)
	q := t.p.queries[base]
	q.text += " " + t.ctx[(round+t.offset[base])%len(t.ctx)]
	return q
}
