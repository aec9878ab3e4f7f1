package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"

	"websyn/internal/match"
)

// POST /v1/match — the versioned, unified matching endpoint. One shape
// serves single and batch requests:
//
//	{"query": "indy 4 near san fran", "explain": true}
//	{"queries": [{"query": "indy 4"}, {"query": "madagascar2"}], "top_k": 3}
//
// Top-level tuning fields (top_k, min_sim, mode, explain,
// max_span_tokens) act as defaults for every batch item; an item's own
// non-zero fields win. The response is always the batch shape — a single
// query is a batch of one — and errors are per-item, so one malformed
// query cannot fail a 500-query batch:
//
//	{"count": 2, "results": [{...}, {"error": "match: empty query"}]}
//
// Request-level failures (malformed JSON, unknown fields, oversized
// batch) are JSON error objects with a 4xx status. See docs/API.md for
// the full contract.

// V1Request is the body of POST /v1/match: one match.Request, optionally
// carrying a batch. Unknown fields are rejected.
type V1Request struct {
	match.Request
	// Queries, when non-empty, makes the request a batch; the embedded
	// top-level fields (except Query, which must then be empty) become
	// per-item defaults.
	Queries []match.Request `json:"queries,omitempty"`
	// Domains fans items out across several registered domains and
	// merges the answers into one federated response per item: an
	// explicit list, or ["*"] for every domain. Mutually exclusive with
	// the top-level domain field; an item's own domain field overrides
	// the fan-out with an exact route.
	Domains []string `json:"domains,omitempty"`
}

// V1Response is the body of a successful POST /v1/match.
type V1Response struct {
	Count   int        `json:"count"`
	Results []V1Result `json:"results"`
}

// V1Result is one query's outcome: an engine response, or a per-item
// error (never both).
type V1Result struct {
	*match.Response
	// Cached reports whether the response came from the request cache;
	// a cached response carries the Timing of the request that computed
	// it.
	Cached bool `json:"cached,omitempty"`
	// Error is the per-item failure (empty query, bad mode, ...).
	Error string `json:"error,omitempty"`
}

// v1Error is the JSON error shape for request-level failures.
type v1Error struct {
	Error string `json:"error"`
}

// WriteV1Error writes a request-level /v1/match failure in the JSON
// error shape. Exported for front ends (the fleet router) that must
// speak the exact same error grammar as the serving tier.
func WriteV1Error(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v1Error{Error: fmt.Sprintf(format, args...)}); err != nil {
		log.Printf("serve: encoding error response: %v", err)
	}
}

// inheritDefaults fills an item's zero fields from the batch-level
// request.
func inheritDefaults(item, top match.Request) match.Request {
	if item.TopK == 0 {
		item.TopK = top.TopK
	}
	if item.MinSim == 0 {
		item.MinSim = top.MinSim
	}
	if item.Mode == "" {
		item.Mode = top.Mode
	}
	if item.MaxSpanTokens == 0 {
		item.MaxSpanTokens = top.MaxSpanTokens
	}
	if item.Domain == "" {
		item.Domain = top.Domain
	}
	item.Explain = item.Explain || top.Explain
	return item
}

// DecodeV1 parses a POST /v1/match body, writing the 4xx itself on
// failure. Shared by the Registry and the fleet router so both speak
// the exact same request grammar.
func DecodeV1(w http.ResponseWriter, r *http.Request, limit int64) (V1Request, bool) {
	var req V1Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			WriteV1Error(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return V1Request{}, false
		}
		WriteV1Error(w, http.StatusBadRequest, "bad JSON body: %s", err)
		return V1Request{}, false
	}
	return req, true
}

// V1Items validates a decoded request and expands it into its per-item
// list, applying batch-level defaults. A non-empty message (with its
// HTTP status) reports a request-level failure: domain and domains set
// together, neither or both of query and queries, or an oversized
// batch. Exported for the fleet router, which expands a client batch
// and scatters the items across replicas.
func V1Items(req V1Request, maxBatch int) (items []match.Request, status int, msg string) {
	if req.Domain != "" && len(req.Domains) > 0 {
		return nil, http.StatusBadRequest, "domain and domains are mutually exclusive"
	}
	items = req.Queries
	if len(items) == 0 {
		if req.Query == "" {
			return nil, http.StatusBadRequest, "set query, or queries for a batch"
		}
		items = []match.Request{req.Request}
	} else {
		if req.Query != "" {
			return nil, http.StatusBadRequest, "query and queries are mutually exclusive"
		}
		if len(items) > maxBatch {
			return nil, http.StatusRequestEntityTooLarge, fmt.Sprintf("batch of %d exceeds limit %d", len(items), maxBatch)
		}
		for i := range items {
			items[i] = inheritDefaults(items[i], req.Request)
		}
	}
	return items, 0, ""
}
