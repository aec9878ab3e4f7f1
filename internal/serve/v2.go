package serve

import "net/http"

// POST /v2/match — the attribute-aware successor of /v1/match. The
// request grammar is identical (single query or batch, the same tuning
// fields, the same domain routing); the difference is the response: v2
// runs the structured rewrite stage over the tokens the entity match
// left behind, so each result additionally carries
//
//	"attributes": typed predicates parsed from the remainder
//	              ({column, op, value|text, unit, span, source, ...}),
//	"residual":   the remainder minus the spans the predicates consumed.
//
// "cheap canon 40d lens under $500" thus resolves to the Canon 40D
// entity plus price<=q1 (band "cheap") and price<500 (comparator
// "under 500"), with residual "lens". Every other field is bit-for-bit
// the v1 shape, which is what makes the migration mechanical; see
// docs/API.md#v1v2-migration.
//
// v1 stays frozen: the rewrite stage only runs when the request arrived
// through /v2, so /v1/match responses are byte-identical with or
// without a vocabulary loaded.

// Deprecation metadata stamped on the pre-v1 adapter endpoints (/match,
// /match/batch, /fuzzy). The body bytes are untouched — existing
// clients keep working — but conforming clients see the sunset horizon
// and the successor surface.
const (
	// legacyDeprecation is the RFC 9745 Deprecation header value: the
	// moment the legacy surface was declared deprecated
	// (2026-08-01T00:00:00Z), as a unix timestamp.
	legacyDeprecation = "@1785542400"
	// legacySunset is the RFC 8594 Sunset header value: the earliest
	// date the legacy endpoints may be removed.
	legacySunset = "Tue, 01 Jun 2027 00:00:00 GMT"
	// legacySuccessor points clients at the versioned replacement.
	legacySuccessor = `</v2/match>; rel="successor-version"`
)

// deprecated wraps a legacy handler with the deprecation shim: identical
// response bytes, plus the Deprecation/Sunset/Link header triple.
func deprecated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		hdr := w.Header()
		hdr.Set("Deprecation", legacyDeprecation)
		hdr.Set("Sunset", legacySunset)
		hdr.Set("Link", legacySuccessor)
		h(w, r)
	}
}
