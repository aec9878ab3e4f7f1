package match

import (
	"testing"

	"websyn/internal/textnorm"
)

// TestAddDuplicateEntryMerge pins the duplicate-entry merge contract:
// when the same (string, entity) pair is added twice, the higher score
// wins and carries its own Source with it — provenance in traces and
// diagnostics must describe the entry that actually won, not the one it
// displaced. A lower-scoring duplicate changes nothing.
func TestAddDuplicateEntryMerge(t *testing.T) {
	d := NewDictionary()
	d.Add("indy 4", Entry{EntityID: 7, Score: 0.4, Source: "mined"})

	// Higher score: both Score and Source update together.
	d.Add("indy 4", Entry{EntityID: 7, Score: 0.9, Source: "wiki"})
	got := d.Lookup("indy 4")
	if len(got) != 1 {
		t.Fatalf("Lookup = %+v, want one merged entry", got)
	}
	if got[0].Score != 0.9 || got[0].Source != "wiki" {
		t.Fatalf("winning duplicate = %+v, want score 0.9 from wiki (stale Source?)", got[0])
	}

	// Lower score: the losing duplicate must not touch either field.
	d.Add("indy 4", Entry{EntityID: 7, Score: 0.2, Source: "loser"})
	got = d.Lookup("indy 4")
	if got[0].Score != 0.9 || got[0].Source != "wiki" {
		t.Fatalf("losing duplicate overwrote the entry: %+v", got[0])
	}

	// Merging never double-counts sizes.
	if d.Len() != 1 || d.DistinctStrings() != 1 {
		t.Fatalf("Len %d DistinctStrings %d after duplicate adds, want 1, 1", d.Len(), d.DistinctStrings())
	}

	// A different entity on the same string is a genuine second entry,
	// untouched by the merge path.
	d.Add("indy 4", Entry{EntityID: 8, Score: 0.5, Source: "mined"})
	if d.Len() != 2 || d.DistinctStrings() != 1 {
		t.Fatalf("Len %d DistinctStrings %d after second entity, want 2, 1", d.Len(), d.DistinctStrings())
	}
}

// TestCorrectEdgeCases pins the corrections the typo index must reach
// through a bucket other than the obvious one, the byte-length window
// and the ambiguity rule — each against the full-scan oracle as well.
func TestCorrectEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		vocab []string
		tok   string
		want  string
	}{
		// "𠀀" is one 4-byte rune; "中" one 3-byte rune sharing neither
		// its first nor its last byte: only the single-rune list has it.
		{"single rune to single rune", []string{"中", "twilight"}, "𠀀", "中"},
		{"1-byte to 2-byte substitution", []string{"café"}, "cafe", "café"},
		// Rune distance 1, but 2 bytes longer: outside the byte window.
		{"1-byte to 3-byte substitution", []string{"cafｅ"}, "cafe", ""},
		{"two neighbours are ambiguous", []string{"mango", "manga"}, "mangu", ""},
		{"substitution at the first rune", []string{"twilight"}, "xwilight", "twilight"},
		{"substitution at the last rune", []string{"twilight"}, "twilighx", "twilight"},
		{"deletion of the first rune", []string{"twilight"}, "wilight", "twilight"},
		{"insertion before the first rune", []string{"twilight"}, "atwilight", "twilight"},
		{"multibyte first rune", []string{"élan vital"}, "alan", "élan"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := NewDictionary()
			for i, v := range c.vocab {
				d.Add(v, Entry{EntityID: i, Score: 1})
			}
			if got := d.correct(c.tok); got != c.want {
				t.Errorf("correct(%q) = %q, want %q", c.tok, got, c.want)
			}
			if got := oracleCorrect(d, c.tok); got != c.want {
				t.Errorf("oracleCorrect(%q) = %q, want %q", c.tok, got, c.want)
			}
		})
	}
}

// TestCorrectSeesLaterAdds pins that the typo index has no build step
// to go stale: a token added after earlier corrections is a candidate
// for the next one, and can turn a unique correction ambiguous.
func TestCorrectSeesLaterAdds(t *testing.T) {
	d := NewDictionary()
	d.Add("twilight", Entry{EntityID: 1, Score: 1})
	if got := d.correct("crystel"); got != "" {
		t.Fatalf("correct(crystel) = %q before crystal was added", got)
	}
	d.Add("crystal skull", Entry{EntityID: 2, Score: 1})
	if got := d.correct("crystel"); got != "crystal" {
		t.Fatalf("correct(crystel) = %q after adding crystal, want crystal", got)
	}
	d.Add("crystol", Entry{EntityID: 3, Score: 1})
	if got := d.correct("crystel"); got != "" {
		t.Fatalf("correct(crystel) = %q with crystal and crystol, want ambiguous", got)
	}
}

// correctFuzzVocab seeds FuzzCorrectMatchesOracle's dictionary with
// ASCII, 2-byte, 3-byte and single 4-byte-rune tokens.
var correctFuzzVocab = []string{
	"twilight", "twilights", "crystal skull", "madagascar 2", "mango", "manga",
	"café", "amélie", "naïve", "straße", "jalapeño",
	"中", "日本", "東京", "中国語", "ｅｏｓ",
	"𠀀", "𠀁", "𝔸", "𠀀中",
}

// FuzzCorrectMatchesOracle asserts the bucketed corrector agrees with
// the full-scan DP oracle. Each input string is added to the dictionary
// and used as a query, raw and as its tokens, before and after the Add.
func FuzzCorrectMatchesOracle(f *testing.F) {
	f.Add("twilght", "crystl")
	f.Add("cafe", "amelie")
	f.Add("𠀂", "中国")
	f.Add("mangu", "manga mango")
	f.Add("東亰", "𝔹")
	f.Add("", "naive")
	f.Fuzz(func(t *testing.T, a, b string) {
		d := NewDictionary()
		for i, v := range correctFuzzVocab {
			d.Add(v, Entry{EntityID: i, Score: 1})
		}
		check := func() {
			for _, s := range []string{a, b} {
				for _, tok := range append(textnorm.Tokenize(s), s) {
					if got, want := d.correct(tok), oracleCorrect(d, tok); got != want {
						t.Fatalf("correct(%q) = %q, oracle %q", tok, got, want)
					}
				}
			}
		}
		check()
		d.Add(a, Entry{EntityID: 100, Score: 1})
		check()
		d.Add(b, Entry{EntityID: 101, Score: 1})
		check()
	})
}
