package wire

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"websyn/internal/match"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		{},
		{0x01},
		[]byte("hello frame"),
		bytes.Repeat([]byte{0xAB}, 100_000),
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	var reuse []byte
	for i, want := range payloads {
		got, err := ReadFrame(&buf, reuse)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
		reuse = got[:0]
	}
	if _, err := ReadFrame(&buf, nil); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	// A hostile length prefix must be rejected before any allocation.
	var hdr bytes.Buffer
	hdr.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&hdr, nil); err != ErrFrameTooLarge {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); err != ErrFrameTooLarge {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		req     match.Request
		domains []string
	}{
		{"zero", match.Request{}, nil},
		{"simple", match.Request{Query: "indy 4 near san fran"}, nil},
		{"full", match.Request{
			Query:         "madagascar 2 dvd",
			Mode:          match.ModeSpan,
			Domain:        "movies",
			TopK:          7,
			MaxSpanTokens: 5,
			MinSim:        0.62,
			Explain:       true,
		}, nil},
		{"federated", match.Request{Query: "canon powershot"}, []string{"movies", "cameras", "*"}},
		{"v2-rewrite", match.Request{
			Query:   "cheap canon 40d under $500",
			Rewrite: true,
			MinSim:  0.55,
		}, []string{"cameras"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := AppendRequest(nil, tc.req, tc.domains)
			req, domains, err := DecodeRequest(b)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(req, tc.req) {
				t.Errorf("request: got %+v, want %+v", req, tc.req)
			}
			if !reflect.DeepEqual(domains, tc.domains) {
				t.Errorf("domains: got %v, want %v", domains, tc.domains)
			}
		})
	}
}

func testResult() Result {
	return Result{
		Cached: true,
		Response: &match.Response{
			Query:     "indy 4 near san fran",
			Remainder: "near san fran",
			Domain:    "movies",
			Timing:    match.Timing{TotalMicros: 123.5, SegmentMicros: 100.25, FuzzyMicros: 23.25},
			Matches: []match.SpanMatch{
				{
					EntityID: 3, Start: 0, End: 2, Score: 0.8125, Similarity: 1,
					Canonical: "Indiana Jones and the Kingdom of the Crystal Skull",
					Span:      "indy 4", Source: "mined", Method: "exact", Domain: "movies",
					Corrected: false,
					Alternates: []match.Alternate{
						{EntityID: 9, Canonical: "Indiana Jones", Text: "indy", Score: 0.5, Similarity: 0.9},
					},
				},
				{EntityID: 4, Start: 3, End: 5, Score: 0.5, Similarity: 0.77,
					Canonical: "San Francisco", Span: "san fran", Source: "mined", Method: "fuzzy", Corrected: true},
			},
			Trace: []match.TraceStep{
				{Stage: "segment", Detail: "2 spans", Domain: "movies"},
			},
			Residual: "near",
			Attributes: []match.Predicate{
				{Column: "year", Op: "eq", Value: 2008, Span: "2008",
					Start: 3, End: 4, Source: "value", Domain: "movies"},
				{Column: "genre", Op: "eq", Text: "adventure", Span: "adventur",
					Start: 4, End: 5, Similarity: 0.88, Source: "value-fuzzy"},
				{Column: "price", Op: "lt", Value: 500, Unit: "usd",
					Span: "under 500", Start: 5, End: 7, Source: "comparator"},
			},
		},
	}
}

func TestResultRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		res  Result
	}{
		{"full", testResult()},
		{"error-only", Result{Err: "unknown domain \"cars\""}},
		{"empty-response", Result{Response: &match.Response{Query: "q"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := AppendResult(nil, tc.res)
			got, err := DecodeResult(b)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.res) {
				t.Errorf("result diverged:\n got %+v\nwant %+v", got, tc.res)
			}
		})
	}
}

// TestDecodeCorruption feeds truncations and bit flips of a valid
// encoding to both decoders: every mutation must fail cleanly or decode
// to something — never panic or over-allocate.
func TestDecodeCorruption(t *testing.T) {
	reqBytes := AppendRequest(nil, match.Request{
		Query: "indy 4", Mode: match.ModeSpan, Domain: "movies", TopK: 3, MinSim: 0.6,
	}, []string{"movies", "cameras"})
	resBytes := AppendResult(nil, testResult())

	for name, b := range map[string][]byte{"request": reqBytes, "result": resBytes} {
		decode := func(b []byte) error {
			if name == "request" {
				_, _, err := DecodeRequest(b)
				return err
			}
			_, err := DecodeResult(b)
			return err
		}
		// Every truncation must error (a prefix is never a valid encoding
		// plus zero trailing bytes, except length 0 for request... which
		// still errors on the trailing field reads).
		for i := 0; i < len(b); i++ {
			if err := decode(b[:i]); err == nil {
				t.Errorf("%s: truncation at %d decoded cleanly", name, i)
			}
		}
		// Bit flips may legitimately decode (flipping a float bit yields
		// another float) — the requirement is no panic and no hang.
		for i := 0; i < len(b); i++ {
			mut := append([]byte(nil), b...)
			mut[i] ^= 0xFF
			_ = decode(mut)
		}
		// Trailing garbage must be rejected, not ignored.
		if err := decode(append(append([]byte(nil), b...), 0x00)); err == nil ||
			!strings.Contains(err.Error(), "trailing") {
			t.Errorf("%s: trailing byte not rejected (err: %v)", name, err)
		}
	}
}

// TestDecodeHostileCount ensures a forged element count cannot force a
// huge allocation: counts are bounded by the bytes that remain.
func TestDecodeHostileCount(t *testing.T) {
	// A result frame claiming 2^40 matches in a few bytes.
	b := []byte{2}                        // flags: has response, not cached
	b = appendString(b, "")               // err
	b = appendString(b, "q")              // query
	b = appendString(b, "")               // remainder
	b = appendString(b, "")               // domain
	b = append(b, make([]byte, 24)...)    // three float64 timings
	b = append(b, 0x80, 0x80, 0x80, 0x80, // uvarint 2^40
		0x80, 0x80, 0x80, 0x80, 0x01)
	if _, err := DecodeResult(b); err == nil {
		t.Fatal("hostile match count decoded cleanly")
	}
}

// TestLargeScalarsNearFrameEnd pins the scalar/count distinction: a
// scalar's value (entity ID, token offset, TopK) can legitimately
// exceed the bytes remaining in the frame, and only true list counts
// may be bounded by the remaining length. The original decoder applied
// the list-count bound to scalars, which rejected any real snapshot's
// high entity IDs once they landed near the end of the buffer.
func TestLargeScalarsNearFrameEnd(t *testing.T) {
	// TopK/MaxSpanTokens sit just before the short request tail, so a
	// value bigger than the ~15 trailing bytes catches the regression.
	req := match.Request{Query: "q", TopK: 50, MaxSpanTokens: 12}
	enc := AppendRequest(nil, req, nil)
	got, _, err := DecodeRequest(enc)
	if err != nil {
		t.Fatalf("request with TopK=50: %v", err)
	}
	if got.TopK != 50 || got.MaxSpanTokens != 12 {
		t.Fatalf("got TopK=%d MaxSpanTokens=%d", got.TopK, got.MaxSpanTokens)
	}

	// A last match whose entity ID and offsets dwarf the bytes that
	// follow them in the frame.
	res := Result{Response: &match.Response{
		Query: "nikon d90",
		Matches: []match.SpanMatch{{
			EntityID: 4_000_000,
			Start:    70_000,
			End:      70_001,
			Score:    1,
			Alternates: []match.Alternate{
				{EntityID: 3_999_999, Score: 0.5},
			},
		}},
	}}
	encRes := AppendResult(nil, res)
	dec, err := DecodeResult(encRes)
	if err != nil {
		t.Fatalf("result with large scalars: %v", err)
	}
	m := dec.Response.Matches[0]
	if m.EntityID != 4_000_000 || m.Start != 70_000 || m.End != 70_001 {
		t.Fatalf("decoded match %+v", m)
	}
	if m.Alternates[0].EntityID != 3_999_999 {
		t.Fatalf("decoded alternate %+v", m.Alternates[0])
	}

	// The v2 predicate token offsets are scalars too: a last predicate
	// with offsets beyond the trailing byte count must decode.
	res = Result{Response: &match.Response{
		Query: "q",
		Attributes: []match.Predicate{
			{Column: "price", Op: "lt", Value: 500, Start: 60_000, End: 60_002, Source: "comparator"},
		},
	}}
	dec, err = DecodeResult(AppendResult(nil, res))
	if err != nil {
		t.Fatalf("result with large predicate offsets: %v", err)
	}
	p := dec.Response.Attributes[0]
	if p.Start != 60_000 || p.End != 60_002 {
		t.Fatalf("decoded predicate %+v", p)
	}
}

// FuzzWireDecode feeds arbitrary bytes to both body decoders. Neither
// may panic; when a decode succeeds, re-encoding the value and decoding
// that must give the same value back. Values are compared by their
// canonical encoding, which is exact for every field (float64s by IEEE
// bits, so a NaN decoded from the input compares equal to itself).
func FuzzWireDecode(f *testing.F) {
	for _, b := range [][]byte{
		AppendRequest(nil, match.Request{}, nil),
		AppendRequest(nil, match.Request{Query: "indy 4 near san fran"}, nil),
		AppendRequest(nil, match.Request{
			Query: "madagascar 2 dvd", Mode: match.ModeSpan, Domain: "movies",
			TopK: 7, MaxSpanTokens: 5, MinSim: 0.62, Explain: true,
		}, nil),
		AppendRequest(nil, match.Request{Query: "canon powershot"}, []string{"movies", "cameras", "*"}),
		AppendRequest(nil, match.Request{Query: "cheap canon 40d under $500", Rewrite: true, MinSim: 0.55}, []string{"cameras"}),
		AppendResult(nil, testResult()),
		AppendResult(nil, Result{Err: "unknown domain \"cars\""}),
		AppendResult(nil, Result{Response: &match.Response{Query: "q"}}),
	} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if req, domains, err := DecodeRequest(b); err == nil {
			enc := AppendRequest(nil, req, domains)
			req2, domains2, err := DecodeRequest(enc)
			if err != nil {
				t.Fatalf("re-encoded request does not decode: %v", err)
			}
			if enc2 := AppendRequest(nil, req2, domains2); !bytes.Equal(enc, enc2) {
				t.Fatalf("request round trip diverged:\n first %+v %q\nsecond %+v %q", req, domains, req2, domains2)
			}
		}
		if res, err := DecodeResult(b); err == nil {
			enc := AppendResult(nil, res)
			res2, err := DecodeResult(enc)
			if err != nil {
				t.Fatalf("re-encoded result does not decode: %v", err)
			}
			if enc2 := AppendResult(nil, res2); !bytes.Equal(enc, enc2) {
				t.Fatalf("result round trip diverged:\n first %+v\nsecond %+v", res, res2)
			}
		}
	})
}
