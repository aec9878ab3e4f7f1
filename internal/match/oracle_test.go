package match

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"websyn/internal/textnorm"
)

// Reference engine: the original allocating implementation of
// Engine.Match, kept verbatim as the test oracle the arena engine
// (arena.go) is pinned byte-identical to. It has its own trie walk and
// its own edit-distance DP typo corrector, so a bug in the shared
// production walk cannot hide from the differential suites. Fuzzy
// lookups go through FuzzyIndex.Lookup, which the packed-index tests pin
// to the map-based oracle (legacyFuzzy).

// oracleMatch is the reference Engine.Match: resolve defaults, validate,
// tokenize, match.
func (e *Engine) oracleMatch(req Request) (Response, error) {
	req = req.WithDefaults()
	if err := req.Validate(); err != nil {
		return Response{}, err
	}
	return e.match(req, textnorm.Tokenize(req.Query))
}

// match answers a defaulted, validated request over its tokens.
func (e *Engine) match(req Request, tokens []string) (Response, error) {
	if req.Mode == ModeFuzzy && e.fuzzy == nil {
		return Response{}, errors.New("match: fuzzy mode unavailable: engine has no trigram index")
	}
	start := time.Now()
	var resp Response
	if len(tokens) == 0 {
		// Normalization ate the whole query ("!!!"): a degenerate but
		// well-formed request, answered with an empty segmentation.
		resp.Timing.TotalMicros = micros(time.Since(start))
		return resp, nil
	}

	resp.Query = joinTokens(tokens)
	var trace []TraceStep
	addTrace := func(stage, format string, args ...any) {
		if req.Explain {
			trace = append(trace, TraceStep{Stage: stage, Detail: fmt.Sprintf(format, args...)})
		}
	}

	if req.Mode == ModeFuzzy {
		t0 := time.Now()
		resp.Matches = e.wholeFuzzy(resp.Query, len(tokens), req, addTrace)
		resp.Timing.FuzzyMicros = micros(time.Since(t0))
		if len(resp.Matches) == 0 {
			resp.Remainder = resp.Query
		}
		if req.Rewrite && len(resp.Matches) == 0 {
			// Whole-query fuzzy consumed nothing: the full token sequence
			// is remainder, so all of it is rewrite fodder.
			e.rewritePass(&resp, tokens, make([]bool, len(tokens)), req, addTrace)
		}
		resp.Trace = trace
		resp.Timing.TotalMicros = micros(time.Since(start))
		return resp, nil
	}

	t0 := time.Now()
	seg := oracleSegmentTokens(e.dict, tokens)
	used := make([]bool, len(tokens))
	for _, m := range seg.Matches {
		// A matched span consumes its tokens even when the match itself
		// is dropped for resolving outside the entity table — they are
		// dictionary mentions, not remainder (and not span-fuzzy fodder).
		for i := m.Start; i < m.End; i++ {
			used[i] = true
		}
		sm, ok := e.fromTrieMatch(m, req.TopK)
		if !ok {
			continue
		}
		resp.Matches = append(resp.Matches, sm)
		addTrace("segment", "span %q [%d,%d) -> entity %d %q (score %.3g, %s, %s)",
			sm.Span, sm.Start, sm.End, sm.EntityID, sm.Canonical, sm.Score, sm.Source, sm.Method)
	}
	resp.Timing.SegmentMicros = micros(time.Since(t0))

	if req.Mode == ModeSpan && e.fuzzy != nil {
		t1 := time.Now()
		spans := e.spanPass(tokens, used, req, addTrace)
		resp.Timing.FuzzyMicros = micros(time.Since(t1))
		if len(spans) > 0 {
			resp.Matches = mergeByStart(resp.Matches, spans)
		}
	}

	var rest []string
	for i, tok := range tokens {
		if !used[i] {
			rest = append(rest, tok)
		}
	}
	resp.Remainder = strings.Join(rest, " ")
	if req.Rewrite {
		e.rewritePass(&resp, tokens, used, req, addTrace)
	}
	resp.Trace = trace
	resp.Timing.TotalMicros = micros(time.Since(start))
	return resp, nil
}

// fromTrieMatch converts one segmentation match, attaching up to TopK-1
// alternate resolutions of the same span.
func (e *Engine) fromTrieMatch(m Match, topK int) (SpanMatch, bool) {
	if !e.validEntity(m.EntityID) {
		return SpanMatch{}, false
	}
	sm := SpanMatch{
		EntityID:  m.EntityID,
		Canonical: e.canonical(m.EntityID),
		Span:      m.Text,
		Start:     m.Start,
		End:       m.End,
		Score:     m.Score,
		Source:    m.Source,
		Method:    MethodTrie,
		Corrected: m.Corrected,
	}
	if m.Corrected {
		sm.Method = MethodTrieTypo
	}
	// Alternates: the span's other dictionary entries. A corrected span's
	// surface text is not a dictionary string, so it has no direct lookup.
	if topK > 1 && !m.Corrected {
		entries := e.dict.Lookup(m.Text)
		for _, alt := range entries {
			if len(sm.Alternates) >= topK-1 {
				break
			}
			if alt.EntityID == m.EntityID || !e.validEntity(alt.EntityID) {
				continue
			}
			sm.Alternates = append(sm.Alternates, Alternate{
				EntityID:  alt.EntityID,
				Canonical: e.canonical(alt.EntityID),
				Text:      m.Text,
				Score:     alt.Score,
			})
		}
	}
	return sm, true
}

// wholeFuzzy is ModeFuzzy: the whole query against the trigram index.
func (e *Engine) wholeFuzzy(norm string, nTokens int, req Request, addTrace func(string, string, ...any)) []SpanMatch {
	var out []SpanMatch
	for _, h := range e.fuzzy.Lookup(norm, req.TopK) {
		if len(h.Entries) == 0 || !e.validEntity(h.Entries[0].EntityID) {
			continue
		}
		if req.MinSim > 0 && h.Similarity < req.MinSim {
			continue
		}
		best := h.Entries[0]
		out = append(out, SpanMatch{
			EntityID:   best.EntityID,
			Canonical:  e.canonical(best.EntityID),
			Span:       h.Text,
			Start:      0,
			End:        nTokens,
			Score:      best.Score,
			Similarity: h.Similarity,
			Source:     best.Source,
			Method:     MethodFuzzy,
		})
		addTrace("fuzzy", "%q -> entity %d %q (sim %.3f)", h.Text, best.EntityID, e.canonical(best.EntityID), h.Similarity)
	}
	if len(out) == 0 {
		addTrace("fuzzy", "no hit above threshold for %q", norm)
	}
	return out
}

// spanPass resolves leftover token runs through the trigram index: for
// each maximal run of tokens the trie left uncovered, a greedy
// left-to-right sweep tries every window up to MaxSpanTokens wide and
// accepts, per position, the window whose best hit has the highest Dice
// similarity (ties to the wider window). Dice similarity penalizes both
// under- and over-extension — "kingdom of the cristal skull tickets"
// scores best on the 5-token window, leaving "tickets" in the remainder.
func (e *Engine) spanPass(tokens []string, used []bool, req Request, addTrace func(string, string, ...any)) []SpanMatch {
	var out []SpanMatch
	for runStart := 0; runStart < len(tokens); runStart++ {
		if used[runStart] {
			continue
		}
		runEnd := runStart
		for runEnd < len(tokens) && !used[runEnd] {
			runEnd++
		}
		accepted := false
		for i := runStart; i < runEnd; {
			sm, ok := e.bestSpanAt(tokens, i, runEnd, req)
			if !ok {
				i++
				continue
			}
			for j := sm.Start; j < sm.End; j++ {
				used[j] = true
			}
			out = append(out, sm)
			accepted = true
			addTrace("span-fuzzy", "span %q [%d,%d) -> %q -> entity %d %q (sim %.3f)",
				joinTokens(tokens[sm.Start:sm.End]), sm.Start, sm.End, sm.Span, sm.EntityID, sm.Canonical, sm.Similarity)
			i = sm.End
		}
		if !accepted {
			addTrace("span-fuzzy", "run %q [%d,%d): no candidate above threshold",
				joinTokens(tokens[runStart:runEnd]), runStart, runEnd)
		}
		runStart = runEnd - 1
	}
	return out
}

// bestSpanAt evaluates every window starting at token i (bounded by
// runEnd and MaxSpanTokens) and returns the span match with the highest
// hit similarity. Two guards keep trigram noise out:
//
//   - Single-token windows shorter than minSingleSpanLen characters are
//     skipped — the trie's edit-distance correction already covers
//     short-token typos.
//   - A window must contain at least one token outside the dictionary
//     vocabulary. Span-fuzzy exists to bridge vocabulary gaps
//     (misspellings, concatenations); a window of purely known tokens
//     already had its chance at the trie, and any trigram hit on it is a
//     containment artifact ("showtimes" matching "wall e showtimes").
func (e *Engine) bestSpanAt(tokens []string, i, runEnd int, req Request) (SpanMatch, bool) {
	maxL := min(req.MaxSpanTokens, runEnd-i)
	var best SpanMatch
	found := false
	for l := maxL; l >= 1; l-- {
		if l == 1 && len(tokens[i]) < minSingleSpanLen {
			continue
		}
		oov := false
		for _, tok := range tokens[i : i+l] {
			if !e.dict.HasToken(tok) {
				oov = true
				break
			}
		}
		if !oov {
			continue
		}
		minSim := req.MinSim
		if l == 1 && minSim < singleSpanMinSim {
			minSim = singleSpanMinSim
		}
		text := joinTokens(tokens[i : i+l])
		hits := e.fuzzy.Lookup(text, req.TopK)
		sm, ok := e.resolveSpanHits(hits, i, i+l, minSim, req.TopK)
		if !ok {
			continue
		}
		if !found || sm.Similarity > best.Similarity {
			best, found = sm, true
		}
	}
	return best, found
}

// resolveSpanHits turns a span's fuzzy hits into a match: the first hit
// with a usable entity wins, later hits on distinct entities become
// alternates (up to topK-1 of them).
func (e *Engine) resolveSpanHits(hits []FuzzyHit, start, end int, minSim float64, topK int) (SpanMatch, bool) {
	var sm SpanMatch
	found := false
	seen := map[int]bool{}
	for _, h := range hits {
		if len(h.Entries) == 0 || !e.validEntity(h.Entries[0].EntityID) {
			continue
		}
		if minSim > 0 && h.Similarity < minSim {
			break // hits are sorted best-first
		}
		best := h.Entries[0]
		if !found {
			sm = SpanMatch{
				EntityID:   best.EntityID,
				Canonical:  e.canonical(best.EntityID),
				Span:       h.Text,
				Start:      start,
				End:        end,
				Score:      best.Score,
				Similarity: h.Similarity,
				Source:     best.Source,
				Method:     MethodSpanFuzzy,
			}
			seen[best.EntityID] = true
			found = true
			continue
		}
		if len(sm.Alternates) >= topK-1 || seen[best.EntityID] {
			continue
		}
		seen[best.EntityID] = true
		sm.Alternates = append(sm.Alternates, Alternate{
			EntityID:   best.EntityID,
			Canonical:  e.canonical(best.EntityID),
			Text:       h.Text,
			Score:      best.Score,
			Similarity: h.Similarity,
		})
	}
	return sm, found
}

// mergeByStart interleaves two Start-ordered match lists into one.
func mergeByStart(a, b []SpanMatch) []SpanMatch {
	out := make([]SpanMatch, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Start <= b[j].Start {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// rewritePass executes the attribute rewrite stage for the allocating
// path: predicates over the still-unused tokens, then the post-rewrite
// residual. Runs after Remainder is final, so v1 semantics are untouched.
func (e *Engine) rewritePass(resp *Response, tokens []string, used []bool, req Request, addTrace func(stage, format string, args ...any)) {
	if e.rewriter == nil {
		resp.Residual = resp.Remainder
		return
	}
	var explain func(format string, args ...any)
	if req.Explain {
		explain = func(format string, args ...any) { addTrace("rewrite", format, args...) }
	}
	resp.Attributes = e.rewriter.RewriteTokens(tokens, used, req.MinSim, explain)
	resp.Residual = joinUnused(tokens, used)
}

// oracleSegmentTokens is the reference Dictionary.SegmentTokens: a
// greedy left-to-right scan taking the longest dictionary span at each
// position.
func oracleSegmentTokens(d *Dictionary, tokens []string) *Segmentation {
	seg := &Segmentation{Query: strings.Join(tokens, " "), Tokens: tokens}
	used := make([]bool, len(tokens))

	for start := 0; start < len(tokens); start++ {
		m, ok := oracleLongestFrom(d, tokens, start)
		if !ok {
			continue
		}
		seg.Matches = append(seg.Matches, m)
		for i := m.Start; i < m.End; i++ {
			used[i] = true
		}
		start = m.End - 1
	}

	var rest []string
	for i, tok := range tokens {
		if !used[i] {
			rest = append(rest, tok)
		}
	}
	seg.Remainder = strings.Join(rest, " ")
	return seg
}

// oracleLongestFrom is the reference trie walk: from tokens[start],
// applying typo correction on unknown tokens, it returns the longest span
// that ends at a node with entries.
func oracleLongestFrom(d *Dictionary, tokens []string, start int) (Match, bool) {
	node := d.root
	bestEnd := -1
	var bestEntries []Entry
	corrected := false
	bestCorrected := false

	for i := start; i < len(tokens); i++ {
		tok := tokens[i]
		next := node.children[tok]
		if next == nil {
			if fixed := oracleCorrect(d, tok); fixed != "" {
				next = node.children[fixed]
				if next != nil {
					corrected = true
				}
			}
		}
		if next == nil {
			break
		}
		node = next
		if len(node.entries) > 0 {
			bestEnd = i + 1
			bestEntries = node.entries
			bestCorrected = corrected
		}
	}
	if bestEnd < 0 {
		return Match{}, false
	}
	best := bestEntries[0]
	for _, e := range bestEntries[1:] {
		if e.Score > best.Score || (e.Score == best.Score && e.EntityID < best.EntityID) {
			best = e
		}
	}
	return Match{
		EntityID:  best.EntityID,
		Text:      strings.Join(tokens[start:bestEnd], " "),
		Start:     start,
		End:       bestEnd,
		Score:     best.Score,
		Source:    best.Source,
		Corrected: bestCorrected,
	}, true
}

// oracleCorrect is the reference typo corrector, an edit-distance DP
// per vocabulary token: it returns the vocabulary token closest to tok
// within edit distance 1, or "" when none or ambiguous. Only tokens of
// length >= 4 are corrected.
func oracleCorrect(d *Dictionary, tok string) string {
	if len(tok) < 4 || d.vocab[tok] {
		return ""
	}
	best := ""
	for v := range d.vocab {
		if len(v) < 3 {
			continue
		}
		dl := len(v) - len(tok)
		if dl > 1 || dl < -1 {
			continue
		}
		if textnorm.EditDistanceAtMost(tok, v, 1) {
			if best != "" && best != v {
				return "" // ambiguous correction: refuse to guess
			}
			best = v
		}
	}
	return best
}
