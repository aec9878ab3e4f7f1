package match

import (
	"errors"
	"fmt"
	"time"
)

// Engine is the single entry point for online query matching: it owns the
// token-trie dictionary (exact segmentation + per-token typo correction)
// and the packed trigram index (whole-string and span-level fuzzy
// matching), and answers every request through one Request/Response pair.
// The websyn facade, the /v1/match HTTP endpoint and the legacy endpoint
// adapters all route through it.
//
// The capability the trio of older primitives only approximated is
// span-level fuzzy matching: after trie segmentation, candidate
// multi-token spans of the leftover tokens are run through the trigram
// index, so "indianajones 4 tickets" resolves the span "indianajones 4"
// to the movie even though no trie path and no single-token correction
// can bridge the concatenation.
type Engine struct {
	dict *Dictionary
	// fuzzy is the trigram index consulted by span and fuzzy modes; a nil
	// index degrades ModeSpan to plain segmentation and makes ModeFuzzy
	// an error.
	fuzzy *FuzzyIndex
	// canonicals maps entity ID -> canonical string. When non-nil,
	// matches resolving outside it are dropped (the serving tier's
	// behavior); when nil, Canonical fields are left empty.
	canonicals []string
	// minSim is the threshold the fuzzy index was built with — the floor
	// any Request.MinSim override is applied above.
	minSim float64
	// rewriter, when non-nil, parses remainder tokens into typed
	// attribute predicates for requests with Rewrite set (see attr.go).
	rewriter AttributeRewriter
}

// NewEngine assembles an engine. fuzzy and canonicals may be nil (see
// Engine field docs); minSim <= 0 falls back to the package default.
func NewEngine(dict *Dictionary, fuzzy *FuzzyIndex, canonicals []string, minSim float64) *Engine {
	return &Engine{dict: dict, fuzzy: fuzzy, canonicals: canonicals, minSim: normMinSim(minSim)}
}

// MinSim returns the similarity floor the engine's trigram index was
// built with — the threshold Request.MinSim overrides can only raise.
func (e *Engine) MinSim() float64 { return e.minSim }

// Mode selects the engine's matching strategy.
type Mode string

const (
	// ModeSpan — the default — segments the query against the trie and
	// then resolves leftover multi-token spans through the trigram index.
	ModeSpan Mode = "span"
	// ModeSegment is trie segmentation with per-token typo correction
	// only: the legacy GET /match behavior.
	ModeSegment Mode = "segment"
	// ModeFuzzy matches the whole query string against the trigram
	// index: the legacy GET /fuzzy behavior.
	ModeFuzzy Mode = "fuzzy"
)

// Request limits and defaults.
const (
	// DefaultTopK is the candidate-list depth when Request.TopK is 0.
	DefaultTopK = 5
	// MaxTopK bounds Request.TopK.
	MaxTopK = 1000
	// DefaultMaxSpanTokens is the span-mode window when
	// Request.MaxSpanTokens is 0.
	DefaultMaxSpanTokens = 8
	// MaxMaxSpanTokens bounds Request.MaxSpanTokens.
	MaxMaxSpanTokens = 16
	// minSingleSpanLen is the shortest single token span-fuzzy will try
	// to resolve; shorter leftovers ("4", "dvd") are noise generators.
	minSingleSpanLen = 4
	// singleSpanMinSim is the similarity floor for single-token spans.
	// A lone token should essentially BE the matched string (a
	// concatenation like "madagascar2", sim ~0.84); just-above-threshold
	// hits there are containment artifacts ("reviews" matching "bolt
	// review" at 0.57).
	singleSpanMinSim = 0.65
)

// Request is the one matching request shape, shared verbatim by the Go
// API and the HTTP tier (POST /v1/match).
type Request struct {
	// Query is the free-text query. Required.
	Query string `json:"query"`
	// TopK bounds ranked candidate lists: fuzzy hits in ModeFuzzy,
	// alternate resolutions per span otherwise. 0 means DefaultTopK.
	TopK int `json:"top_k,omitempty"`
	// MinSim raises the Dice-similarity acceptance threshold for fuzzy
	// and span-fuzzy hits above the index's own floor. 0 keeps the floor.
	MinSim float64 `json:"min_sim,omitempty"`
	// Mode selects the strategy; empty means ModeSpan.
	Mode Mode `json:"mode,omitempty"`
	// Explain attaches a human-readable trace of every matching decision.
	Explain bool `json:"explain,omitempty"`
	// MaxSpanTokens bounds the token width of span-fuzzy candidates.
	// 0 means DefaultMaxSpanTokens.
	MaxSpanTokens int `json:"max_span_tokens,omitempty"`
	// Domain names the structured vertical ("movies", "cameras", ...)
	// the request targets. The engine itself is domain-agnostic and
	// ignores it; the serving tier's domain registry routes on it and
	// stamps responses with the domain that answered. Empty means the
	// caller did not pin a domain.
	Domain string `json:"domain,omitempty"`
	// Rewrite enables the structured attribute rewrite stage: after
	// matching, remainder tokens are parsed into typed predicates
	// (Response.Attributes) and the post-rewrite Residual is computed.
	// Not part of the JSON request surface — the API version selects it
	// (/v2/match sets it, /v1/match never does), which is what keeps v1
	// responses byte-frozen.
	Rewrite bool `json:"-"`
}

// ErrEmptyQuery is returned for requests whose Query field is empty.
var ErrEmptyQuery = errors.New("match: empty query")

// WithDefaults returns the request with zero values resolved. The
// serving tier keys its cache on the defaulted form so equivalent
// requests share an entry.
func (r Request) WithDefaults() Request {
	if r.Mode == "" {
		r.Mode = ModeSpan
	}
	if r.TopK == 0 {
		r.TopK = DefaultTopK
	}
	if r.MaxSpanTokens == 0 {
		r.MaxSpanTokens = DefaultMaxSpanTokens
	}
	return r
}

// Validate rejects malformed requests. It does not resolve defaults;
// call WithDefaults first (Engine.Match does both).
func (r Request) Validate() error {
	if r.Query == "" {
		return ErrEmptyQuery
	}
	if r.TopK < 0 || r.TopK > MaxTopK {
		return fmt.Errorf("match: top_k %d out of range [1, %d]", r.TopK, MaxTopK)
	}
	if r.MinSim < 0 || r.MinSim > 1 {
		return fmt.Errorf("match: min_sim %g out of range [0, 1]", r.MinSim)
	}
	if r.MaxSpanTokens < 0 || r.MaxSpanTokens > MaxMaxSpanTokens {
		return fmt.Errorf("match: max_span_tokens %d out of range [1, %d]", r.MaxSpanTokens, MaxMaxSpanTokens)
	}
	switch r.Mode {
	case ModeSpan, ModeSegment, ModeFuzzy:
		return nil
	default:
		return fmt.Errorf("match: unknown mode %q (valid: %q, %q, %q)", r.Mode, ModeSpan, ModeSegment, ModeFuzzy)
	}
}

// Response is the one matching response shape.
type Response struct {
	// Query is the normalized input.
	Query string `json:"query"`
	// Matches are the resolved entity mentions, left to right (ModeFuzzy:
	// ranked whole-string hits, best first).
	Matches []SpanMatch `json:"matches"`
	// Remainder is the query text outside all matched spans.
	Remainder string `json:"remainder"`
	// Attributes are the typed predicates parsed from remainder tokens,
	// present only for requests with Rewrite set (the /v2 surface) on an
	// engine with an attribute rewriter.
	Attributes []Predicate `json:"attributes,omitempty"`
	// Residual is the query text left after both matching and attribute
	// rewrite — Remainder minus the tokens predicates consumed. Only
	// meaningful (and only emitted) for Rewrite requests.
	Residual string `json:"residual,omitempty"`
	// Trace explains every matching decision, present when
	// Request.Explain was set.
	Trace []TraceStep `json:"trace,omitempty"`
	// Timing breaks down where the request spent its time.
	Timing Timing `json:"timing"`
	// Domain is the vertical that answered, stamped by the serving
	// tier's domain registry. Empty for engines queried directly and for
	// legacy single-snapshot serving. Federated responses merge several
	// domains and leave it empty — the per-match Domain carries the
	// provenance there.
	Domain string `json:"domain,omitempty"`
}

// SpanMatch is one resolved span: an entity mention with its evidence and
// ranked alternates.
type SpanMatch struct {
	// EntityID is the resolved entity.
	EntityID int `json:"entity_id"`
	// Canonical is the entity's canonical string (empty when the engine
	// has no entity table).
	Canonical string `json:"canonical,omitempty"`
	// Span is the matched text: the query span for trie matches, the
	// matched dictionary string for fuzzy resolutions.
	Span string `json:"span"`
	// Start and End are the token span [Start, End) within the query.
	Start int `json:"start"`
	End   int `json:"end"`
	// Score is the dictionary confidence of the winning entry.
	Score float64 `json:"score"`
	// Similarity is the Dice trigram similarity for fuzzy-resolved spans
	// (0 for exact trie matches).
	Similarity float64 `json:"similarity,omitempty"`
	// Source is the winning entry's provenance ("canonical", "mined", ...).
	Source string `json:"source,omitempty"`
	// Method records which machinery resolved the span.
	Method string `json:"method"`
	// Corrected reports whether per-token typo correction was applied.
	Corrected bool `json:"corrected,omitempty"`
	// Alternates are lower-ranked resolutions of the same span, best
	// first, up to TopK-1 of them.
	Alternates []Alternate `json:"alternates,omitempty"`
	// Domain is the vertical whose dictionary resolved this span,
	// stamped by the serving tier when responses from several domains
	// are federated into one. Empty outside federated serving.
	Domain string `json:"domain,omitempty"`
}

// Resolution methods recorded in SpanMatch.Method.
const (
	MethodTrie      = "trie"
	MethodTrieTypo  = "trie+typo"
	MethodSpanFuzzy = "span-fuzzy"
	MethodFuzzy     = "fuzzy"
)

// Alternate is one lower-ranked resolution of a span.
type Alternate struct {
	EntityID  int    `json:"entity_id"`
	Canonical string `json:"canonical,omitempty"`
	// Text is the dictionary string behind the alternate.
	Text       string  `json:"text"`
	Score      float64 `json:"score"`
	Similarity float64 `json:"similarity,omitempty"`
}

// TraceStep is one explain-trace line.
type TraceStep struct {
	// Stage is the machinery that produced the step: "segment",
	// "span-fuzzy" or "fuzzy".
	Stage string `json:"stage"`
	// Detail is the human-readable decision.
	Detail string `json:"detail"`
	// Domain tags which vertical's engine produced the step in a
	// federated trace. Empty outside federated serving.
	Domain string `json:"domain,omitempty"`
}

// Timing is the response's latency breakdown in microseconds.
type Timing struct {
	TotalMicros   float64 `json:"total_us"`
	SegmentMicros float64 `json:"segment_us,omitempty"`
	FuzzyMicros   float64 `json:"fuzzy_us,omitempty"`
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// Match answers one request. It validates after resolving defaults, so a
// zero-valued Request with just Query set is the common-case call. It
// runs the arena path on a fresh Scratch and returns a detached copy of
// the response; callers matching at volume should pool Scratch and call
// MatchScratch instead, as the serving tier does.
func (e *Engine) Match(req Request) (Response, error) {
	resp, err := e.MatchScratch(req, NewScratch())
	if err != nil {
		return Response{}, err
	}
	return CloneResponse(resp), nil
}

// canonical resolves an entity ID against the engine's entity table.
func (e *Engine) canonical(id int) string {
	if id >= 0 && id < len(e.canonicals) {
		return e.canonicals[id]
	}
	return ""
}

// validEntity reports whether a match for this entity may be emitted:
// with an entity table present, out-of-range IDs are dropped (mirroring
// the serving tier's historical behavior).
func (e *Engine) validEntity(id int) bool {
	return e.canonicals == nil || (id >= 0 && id < len(e.canonicals))
}
