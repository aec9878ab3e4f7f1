package match

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestFuzzyIndexLen(t *testing.T) {
	d := demoDict()
	fi := d.NewFuzzyIndex(0.6)
	if fi.Len() != 9 {
		t.Fatalf("indexed %d strings, want 9", fi.Len())
	}
}

func TestFuzzyLookupExactString(t *testing.T) {
	fi := demoDict().NewFuzzyIndex(0.6)
	hits := fi.Lookup("digital rebel xt", 0)
	if len(hits) == 0 || hits[0].Text != "digital rebel xt" || hits[0].Similarity != 1 {
		t.Fatalf("hits = %+v", hits)
	}
}

func TestFuzzyLookupGlobalTypos(t *testing.T) {
	fi := demoDict().NewFuzzyIndex(0.55)
	cases := map[string]string{
		"madagascar2":      "madagascar 2",     // missing space
		"digtal rebel xt":  "digital rebel xt", // dropped letter
		"indiana jones 4 ": "indiana jones 4",  // trailing junk
		"twilightt":        "twilight",         // doubled letter
	}
	for q, want := range cases {
		hits := fi.Lookup(q, 1)
		if len(hits) == 0 {
			t.Errorf("Lookup(%q) found nothing", q)
			continue
		}
		if hits[0].Text != want {
			t.Errorf("Lookup(%q) = %q, want %q", q, hits[0].Text, want)
		}
	}
}

func TestFuzzyLookupRejectsDistantStrings(t *testing.T) {
	fi := demoDict().NewFuzzyIndex(0.6)
	for _, q := range []string{"completely unrelated", "zzz qqq", "weather report"} {
		if hits := fi.Lookup(q, 0); len(hits) != 0 {
			t.Errorf("Lookup(%q) = %+v, want none", q, hits)
		}
	}
}

func TestFuzzyLookupLimit(t *testing.T) {
	fi := demoDict().NewFuzzyIndex(0.3)
	all := fi.Lookup("indiana jones", 0)
	one := fi.Lookup("indiana jones", 1)
	if len(one) > 1 {
		t.Fatalf("limit violated: %d hits", len(one))
	}
	if len(all) > 0 && len(one) == 0 {
		t.Fatal("limit dropped all hits")
	}
}

// TestFuzzyLookupLimitExactCount checks that a limit below the number of
// qualifying strings returns exactly that many hits, best first.
func TestFuzzyLookupLimitExactCount(t *testing.T) {
	hits := episodeDict().NewFuzzyIndex(0.55).Lookup("madagascar episode", 3)
	if len(hits) != 3 {
		t.Fatalf("limit ignored: %d hits", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Similarity > hits[i-1].Similarity {
			t.Fatalf("hits out of order: %v", hits)
		}
	}
}

func TestFuzzyLookupEmptyQuery(t *testing.T) {
	fi := demoDict().NewFuzzyIndex(0.6)
	if hits := fi.Lookup("", 0); hits != nil {
		t.Fatalf("empty query produced %+v", hits)
	}
}

// TestFuzzyIndexSmallDictionaries covers the degenerate index sizes: a
// single string under the default threshold, and no strings at all.
func TestFuzzyIndexSmallDictionaries(t *testing.T) {
	d := NewDictionary()
	d.Add("solo", Entry{EntityID: 1, Score: 1, Source: "canonical"})
	if hits := d.NewFuzzyIndex(0).Lookup("solo", 0); len(hits) != 1 || hits[0].Text != "solo" {
		t.Fatalf("lookup on one-string index: %v", hits)
	}
	if hits := NewDictionary().NewFuzzyIndex(0.6).Lookup("anything", 0); hits != nil {
		t.Fatalf("empty dictionary returned hits: %v", hits)
	}
}

func TestFuzzyShortQueryFallsBackToExact(t *testing.T) {
	d := NewDictionary()
	d.Add("xy", Entry{EntityID: 5, Score: 1})
	fi := d.NewFuzzyIndex(0.6)
	hits := fi.Lookup("xy", 0)
	if len(hits) != 1 || hits[0].Entries[0].EntityID != 5 {
		t.Fatalf("short-query fallback = %+v", hits)
	}
	if hits := fi.Lookup("zz", 0); hits != nil {
		t.Fatalf("unknown short query produced %+v", hits)
	}
}

func TestBestEntity(t *testing.T) {
	fi := demoDict().NewFuzzyIndex(0.55)
	e, ok := fi.BestEntity("350d")
	if !ok || e.EntityID != 2 {
		t.Fatalf("exact BestEntity = %+v, %v", e, ok)
	}
	e, ok = fi.BestEntity("madagascar2")
	if !ok || e.EntityID != 4 {
		t.Fatalf("fuzzy BestEntity = %+v, %v", e, ok)
	}
	if _, ok := fi.BestEntity("nothing here"); ok {
		t.Fatal("irrelevant query resolved")
	}
}

// TestBestEntityNearDuplicates resolves entities in a dictionary whose
// lookups touch long posting lists of near-duplicate strings.
func TestBestEntityNearDuplicates(t *testing.T) {
	fi := episodeDict().NewFuzzyIndex(0.55)
	e, ok := fi.BestEntity("iron man")
	if !ok || e.EntityID != 501 {
		t.Fatalf("exact BestEntity = %+v, %v", e, ok)
	}
	e, ok = fi.BestEntity("iron mann")
	if !ok || e.EntityID != 501 {
		t.Fatalf("fuzzy BestEntity = %+v, %v", e, ok)
	}
	if _, ok := fi.BestEntity("qqqqqqq"); ok {
		t.Fatal("BestEntity matched garbage")
	}
}

// episodeDict compiles a dictionary of many near-duplicate strings, so a
// lookup touches long posting lists.
func episodeDict() *Dictionary {
	d := NewDictionary()
	for i := 0; i < 40; i++ {
		d.Add(fmt.Sprintf("madagascar episode %d", i), Entry{EntityID: i, Score: 1, Source: "canonical"})
		d.Add(fmt.Sprintf("kung fu panda %d", i), Entry{EntityID: 100 + i, Score: 1, Source: "canonical"})
	}
	d.Add("madagascar escape 2 africa", Entry{EntityID: 500, Score: 1, Source: "canonical"})
	d.Add("iron man", Entry{EntityID: 501, Score: 1, Source: "canonical"})
	d.Add("up", Entry{EntityID: 502, Score: 1, Source: "canonical"})
	return d
}

// TestFuzzyLookupConcurrent runs Lookup and the engine's MatchScratch
// against one index from many goroutines; under -race it checks that
// the index's pooled scan state is never shared between lookups.
func TestFuzzyLookupConcurrent(t *testing.T) {
	d := episodeDict()
	fi := d.NewFuzzyIndex(0.55)
	e := NewEngine(d, fi, nil, 0.55)
	wantHits := fi.Lookup("madagascar2", 5)
	if len(wantHits) == 0 {
		t.Fatal("fixture broken: no hits for madagascar2")
	}
	req := Request{Query: "madagascar episod 7 tickets", TopK: 3}
	want, err := e.Match(req)
	if err != nil {
		t.Fatal(err)
	}
	want.Timing = Timing{}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := NewScratch()
			for j := 0; j < 50; j++ {
				if got := fi.Lookup("madagascar2", 5); !reflect.DeepEqual(got, wantHits) {
					t.Errorf("concurrent Lookup diverged:\n got %+v\nwant %+v", got, wantHits)
					return
				}
				resp, err := e.MatchScratch(req, sc)
				if err != nil {
					t.Error(err)
					return
				}
				got := CloneResponse(resp)
				got.Timing = Timing{}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent MatchScratch diverged:\n got %+v\nwant %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestForEachOrderedAndComplete(t *testing.T) {
	d := demoDict()
	var texts []string
	total := 0
	d.ForEach(func(text string, entries []Entry) {
		texts = append(texts, text)
		total += len(entries)
	})
	if total != d.Len() {
		t.Fatalf("ForEach visited %d entries, dictionary has %d", total, d.Len())
	}
	for i := 1; i < len(texts); i++ {
		if texts[i] <= texts[i-1] {
			t.Fatalf("ForEach not in order: %q after %q", texts[i], texts[i-1])
		}
	}
	if !reflect.DeepEqual(texts, d.Strings()) {
		t.Fatal("Strings() disagrees with ForEach")
	}
}

func TestDictionaryTSVRoundTrip(t *testing.T) {
	d := demoDict()
	var buf bytes.Buffer
	if err := d.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != d.Len() {
		t.Fatalf("round trip size %d != %d", d2.Len(), d.Len())
	}
	for _, s := range d.Strings() {
		a, b := d.Lookup(s), d2.Lookup(s)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("entries differ for %q: %v vs %v", s, a, b)
		}
	}
	// Segmentation behaviour must survive the round trip.
	segA := d.Segment("indy 4 near san fran")
	segB := d2.Segment("indy 4 near san fran")
	if !reflect.DeepEqual(segA.Matches, segB.Matches) {
		t.Fatal("segmentation differs after round trip")
	}
}

func TestReadTSVRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"too\tfew\tfields\n",
		"text\tNaN\t0.5\tsrc\n",
		"text\t1\tnotafloat\tsrc\n",
	} {
		if _, err := ReadTSV(bytes.NewBufferString(in)); err == nil {
			t.Errorf("malformed input %q accepted", in)
		}
	}
}

func TestWriteTSVRejectsTabInSource(t *testing.T) {
	d := NewDictionary()
	d.Add("x y", Entry{EntityID: 1, Score: 1, Source: "bad\tsource"})
	if err := d.WriteTSV(&bytes.Buffer{}); err == nil {
		t.Fatal("tab in source accepted")
	}
}

func BenchmarkFuzzyLookup(b *testing.B) {
	fi := demoDict().NewFuzzyIndex(0.55)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fi.Lookup("madagascar2 dvd release", 3)
	}
}
