package match

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"websyn/internal/textnorm"
)

// ---- Differential oracle ----
//
// legacyFuzzy replicates the pre-packed implementation verbatim:
// map-based posting lists, a per-query candidate map, the
// floor-truncated count prune, and full NGramSimilarity verification of
// every surviving candidate. The packed index must return byte-identical
// hits.

type legacyFuzzy struct {
	dict    *Dictionary
	strings []string
	grams   map[string][]int
	minSim  float64

	verified int // candidates whose full similarity was computed
}

func newLegacyFuzzy(d *Dictionary, minSim float64) *legacyFuzzy {
	lf := &legacyFuzzy{
		dict:    d,
		strings: d.Strings(),
		grams:   make(map[string][]int),
		minSim:  minSim,
	}
	for i, s := range lf.strings {
		seen := map[string]bool{}
		for _, g := range textnorm.CharNGrams(s, fuzzyGramSize) {
			if !seen[g] {
				seen[g] = true
				lf.grams[g] = append(lf.grams[g], i)
			}
		}
	}
	return lf
}

func (lf *legacyFuzzy) Lookup(query string, limit int) []FuzzyHit {
	norm := textnorm.Normalize(query)
	if norm == "" {
		return nil
	}
	grams := textnorm.CharNGrams(norm, fuzzyGramSize)
	if len(grams) == 0 {
		if es := lf.dict.Lookup(norm); es != nil {
			return []FuzzyHit{{Text: norm, Similarity: 1, Entries: es}}
		}
		return nil
	}
	seen := make(map[string]bool, len(grams))
	qGrams := grams[:0]
	for _, g := range grams {
		if !seen[g] {
			seen[g] = true
			qGrams = append(qGrams, g)
		}
	}
	counts := make(map[int]int)
	for _, g := range qGrams {
		for _, idx := range lf.grams[g] {
			counts[idx]++
		}
	}
	minShared := int(lf.minSim * float64(len(qGrams)) / 2) // truncated, as shipped
	var hits []FuzzyHit
	for idx, shared := range counts {
		if shared < minShared {
			continue
		}
		lf.verified++
		s := lf.strings[idx]
		sim := textnorm.NGramSimilarity(norm, s, fuzzyGramSize)
		if sim < lf.minSim {
			continue
		}
		hits = append(hits, FuzzyHit{Text: s, Similarity: sim, Entries: lf.dict.Lookup(s)})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Similarity != hits[j].Similarity {
			return hits[i].Similarity > hits[j].Similarity
		}
		return hits[i].Text < hits[j].Text
	})
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

var packedDiffQueries = []string{
	"madagascar2", "digtal rebel xt", "indiana jnes 4", "twilightt",
	"kungfu panda", "canon eos", "350d", "escape 2 africa",
	"indiana jones and the kingdom", "completely unrelated", "zz", "",
	"the crystal skull", "rebel xt digital", "eoss 350", "madagascar escape africa",
}

func TestPackedMatchesLegacyOnDemoDict(t *testing.T) {
	d := demoDict()
	for _, minSim := range []float64{0.4, 0.55, 0.6, 0.8} {
		lf := newLegacyFuzzy(d, minSim)
		fi := d.NewFuzzyIndex(minSim)
		for _, q := range packedDiffQueries {
			for _, limit := range []int{0, 1, 3} {
				want := lf.Lookup(q, limit)
				got := fi.Lookup(q, limit)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("minSim=%v Lookup(%q, %d):\n got %+v\nwant %+v", minSim, q, limit, got, want)
				}
			}
		}
	}
}

// ---- Packed round trip ----

func TestPackedBinaryRoundTrip(t *testing.T) {
	d := demoDict()
	fi := d.NewFuzzyIndex(0.55)
	p := fi.Packed()

	var buf bytes.Buffer
	if err := p.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPackedFuzzy(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("packed round trip diverged:\n got %+v\nwant %+v", got, p)
	}

	flat, err := d.NewFuzzyIndexFromPacked(got, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range packedDiffQueries {
		want := fi.Lookup(q, 0)
		if g := flat.Lookup(q, 0); !reflect.DeepEqual(g, want) {
			t.Errorf("flat-from-packed Lookup(%q) = %+v, want %+v", q, g, want)
		}
	}
}

func TestPackedRejectsBadData(t *testing.T) {
	d := demoDict()
	good := d.NewFuzzyIndex(0.55).Packed()
	clone := func() *PackedFuzzy {
		return &PackedFuzzy{
			NumStrings: good.NumStrings,
			Grams:      append([]string(nil), good.Grams...),
			Offsets:    append([]int32(nil), good.Offsets...),
			Postings:   append([]int32(nil), good.Postings...),
			Mults:      append([]int32(nil), good.Mults...),
		}
	}
	cases := map[string]func(*PackedFuzzy){
		"string count mismatch":  func(p *PackedFuzzy) { p.NumStrings++ },
		"posting out of range":   func(p *PackedFuzzy) { p.Postings[0] = int32(p.NumStrings) },
		"negative posting":       func(p *PackedFuzzy) { p.Postings[0] = -1 },
		"zero multiplicity":      func(p *PackedFuzzy) { p.Mults[0] = 0 },
		"offsets short":          func(p *PackedFuzzy) { p.Offsets = p.Offsets[:len(p.Offsets)-1] },
		"offsets span too small": func(p *PackedFuzzy) { p.Offsets[len(p.Offsets)-1]-- },
	}
	for name, corrupt := range cases {
		p := clone()
		corrupt(p)
		if _, err := d.NewFuzzyIndexFromPacked(p, 0.55); err == nil {
			t.Errorf("%s: loader accepted corrupt packed data", name)
		}
	}
	// Truncated byte streams must error, not panic.
	var buf bytes.Buffer
	if err := good.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, n := range []int{0, 1, len(raw) / 2, len(raw) - 1} {
		if _, err := ReadPackedFuzzy(bytes.NewReader(raw[:n])); err == nil {
			t.Errorf("truncation at %d bytes accepted", n)
		}
	}
}

// ---- Ceiling prune ----

// TestCeilingPruneFewerVerified pins the candidate-prune bugfix: the old
// floor-truncated threshold let candidates with shared < minSim*|q|/2
// through to full verification; the ceiling threshold rejects them
// earlier, with identical results.
func TestCeilingPruneFewerVerified(t *testing.T) {
	d := NewDictionary()
	// 8 shared grams with the query: a real hit.
	d.Add("abcdefghij", Entry{EntityID: 1, Score: 1, Source: "canonical"})
	// Exactly 2 shared grams ("abc", "bcd"): with minSim=0.6 and a
	// 7-distinct-gram query the threshold is 2.1 — floor admits the
	// candidate to verification, ceiling prunes it. Its similarity
	// (2*2/(7+5) = 0.33) fails verification anyway, so results agree.
	d.Add("abcdzzz", Entry{EntityID: 2, Score: 1, Source: "canonical"})

	const minSim, query = 0.6, "abcdefghi"
	lf := newLegacyFuzzy(d, minSim)
	fi := d.NewFuzzyIndex(minSim)

	want := lf.Lookup(query, 0)
	got := fi.Lookup(query, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("results diverged:\n got %+v\nwant %+v", got, want)
	}
	if len(got) != 1 || got[0].Text != "abcdefghij" {
		t.Fatalf("unexpected hits %+v", got)
	}

	// Sanity-check the constructed thresholds really straddle the case.
	qDistinct := 7
	floorThresh := int(minSim * float64(qDistinct) / 2)
	ceilThresh := int(math.Ceil(minSim * float64(qDistinct) / 2))
	if floorThresh != 2 || ceilThresh != 3 {
		t.Fatalf("thresholds = %d/%d, fixture broken", floorThresh, ceilThresh)
	}

	if lf.verified != 2 {
		t.Fatalf("legacy verified %d candidates, want 2", lf.verified)
	}
	if v := fi.verified.Load(); v != 1 {
		t.Fatalf("packed index verified %d candidates, want 1 (fewer than legacy's %d)", v, lf.verified)
	}
}

// TestRepeatedGramQueryRecall pins the repeated-trigram corner: a string
// sharing a single *distinct* gram with the query can still clear the
// Dice threshold through multiplicity ("aaaaaaa" vs "aaaaaaabcd" share
// only "aaa", five times). The distinct-count prune is unsound there and
// must stand down in favor of the multiset bound; dropping the hit would
// be a silent recall regression.
func TestRepeatedGramQueryRecall(t *testing.T) {
	d := NewDictionary()
	d.Add("aaaaaaa", Entry{EntityID: 1, Score: 1, Source: "canonical"})
	const minSim, query = 0.6, "aaaaaaabcd"

	lf := newLegacyFuzzy(d, minSim)
	want := lf.Lookup(query, 0)
	if len(want) != 1 || want[0].Text != "aaaaaaa" {
		t.Fatalf("oracle fixture broken: %+v", want)
	}
	if got := d.NewFuzzyIndex(minSim).Lookup(query, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("Lookup(%q) dropped the repeated-gram hit:\n got %+v\nwant %+v", query, got, want)
	}
}

// ---- Built / packed / mapped consistency fuzzing ----

// fuzzFixture builds one dictionary with awkward shapes — repeated
// trigrams, shared prefixes, numerals, non-ASCII, very short strings —
// and every index layout over it.
var fuzzFixture struct {
	once   sync.Once
	legacy *legacyFuzzy
	flat   *FuzzyIndex
	mapped *FuzzyIndex // raw slabs aliased in place, as matchd -mmap serves
	packed *FuzzyIndex // flat index rebuilt through the binary codec
}

// mapRaw writes p in the raw slab layout into an 8-byte-aligned buffer —
// the alignment an mmap base guarantees — and maps it back in place.
func mapRaw(tb testing.TB, p *PackedFuzzy) *PackedFuzzy {
	var buf bytes.Buffer
	if err := p.WriteRaw(&buf, 0); err != nil {
		tb.Fatal(err)
	}
	words := make([]uint64, (buf.Len()+7)/8)
	data := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(words)*8)[:buf.Len()]
	copy(data, buf.Bytes())
	m, _, err := MapPackedFuzzy(data, 0, words)
	if err != nil {
		tb.Fatal(err)
	}
	if !m.Mapped() {
		tb.Fatal("raw slabs were copied, not mapped in place")
	}
	return m
}

func fuzzIndexes(tb testing.TB) (*legacyFuzzy, *FuzzyIndex, *FuzzyIndex, *FuzzyIndex) {
	fuzzFixture.once.Do(func() {
		d := NewDictionary()
		id := 0
		add := func(s string) {
			d.Add(s, Entry{EntityID: id, Score: 1 - float64(id)/1000, Source: "mined"})
			id++
		}
		for i := 0; i < 25; i++ {
			add(fmt.Sprintf("madagascar episode %d", i))
			add(fmt.Sprintf("kung fu panda %d returns", i))
		}
		for _, s := range []string{
			"new york new york", "abab abab abab", "aaaaaaaaaa",
			"mississippi", "banana bandana", "la la land",
			"amélie from montmartre", "les misérables", "東京物語",
			"up", "it", "300", "2012", "wall e", "wall street",
			"the lord of the rings the return of the king",
			"lord of war", "war of the worlds", "world war z",
		} {
			add(s)
		}
		const minSim = 0.55
		fuzzFixture.legacy = newLegacyFuzzy(d, minSim)
		fuzzFixture.flat = d.NewFuzzyIndex(minSim)
		var err error
		fuzzFixture.mapped, err = d.NewFuzzyIndexFromPacked(mapRaw(tb, fuzzFixture.flat.Packed()), minSim)
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fuzzFixture.flat.Packed().WriteBinary(&buf); err != nil {
			tb.Fatal(err)
		}
		p, err := ReadPackedFuzzy(&buf)
		if err != nil {
			tb.Fatal(err)
		}
		fuzzFixture.packed, err = d.NewFuzzyIndexFromPacked(p, minSim)
		if err != nil {
			tb.Fatal(err)
		}
	})
	return fuzzFixture.legacy, fuzzFixture.flat, fuzzFixture.mapped, fuzzFixture.packed
}

// FuzzFuzzyLookupConsistency asserts the built index, the raw-mapped
// index and the packed-codec round trip return identical hits for
// arbitrary queries and limits.
func FuzzFuzzyLookupConsistency(f *testing.F) {
	f.Add("madagascar2", byte(0))
	f.Add("kungfu panda 3", byte(1))
	f.Add("new york", byte(3))
	f.Add("aaaa", byte(2))
	f.Add("amelie", byte(5))
	f.Add("wall", byte(0))
	f.Add("the lord of the ring", byte(4))
	f.Add("", byte(1))
	f.Fuzz(func(t *testing.T, query string, limitByte byte) {
		_, flat, mapped, packed := fuzzIndexes(t)
		limit := int(limitByte % 8)
		want := flat.Lookup(query, limit)
		if got := mapped.Lookup(query, limit); !reflect.DeepEqual(got, want) {
			t.Errorf("mapped Lookup(%q, %d):\n got %+v\nwant %+v", query, limit, got, want)
		}
		if got := packed.Lookup(query, limit); !reflect.DeepEqual(got, want) {
			t.Errorf("packed Lookup(%q, %d):\n got %+v\nwant %+v", query, limit, got, want)
		}
	})
}

// TestFuzzyLookupConsistencySeeds runs the fuzz seed queries as a plain
// test (go test does not execute fuzz targets' generated corpus) and
// additionally checks the legacy oracle on query shapes where the old
// and new prunes admit the same candidates.
func TestFuzzyLookupConsistencySeeds(t *testing.T) {
	legacy, flat, mapped, packed := fuzzIndexes(t)
	queries := []string{
		"madagascar2", "kungfu panda 3", "madagascar episode 7", "new york",
		"newyork new york", "aaaa", "abab", "mississipi", "banana",
		"lalaland", "amelie montmartre", "amélie", "wall", "war of the world",
		"lord of the rings return", "300", "wall e", "up",
	}
	for _, q := range queries {
		for _, limit := range []int{0, 1, 5} {
			want := legacy.Lookup(q, limit)
			for name, got := range map[string][]FuzzyHit{
				"flat":   flat.Lookup(q, limit),
				"mapped": mapped.Lookup(q, limit),
				"packed": packed.Lookup(q, limit),
			} {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s Lookup(%q, %d):\n got %+v\nwant %+v", name, q, limit, got, want)
				}
			}
		}
	}
}
