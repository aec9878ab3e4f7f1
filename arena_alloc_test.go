package websyn

// The allocation-budget suite pinning the zero-alloc match hot path
// (internal/match's scratch arenas, served through MatchServer.DoView)
// and the mmap snapshot boot: a hard allocs-per-op ceiling per query
// class, a bounded cold-boot time for mapped snapshots, and identical
// answers from mapped and streamed boots. The differential against the
// reference engine over every mined corpus lives next to its oracle, in
// internal/match.

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"websyn/internal/match"
)

// allSnapshots mines all three corpora into serving snapshots (cached
// simulations keep this cheap after the first test needs them).
func allSnapshots(t testing.TB) map[string]*Snapshot {
	t.Helper()
	out := make(map[string]*Snapshot, 3)
	for name, sim := range map[string]*Simulation{
		"movies":   movies(t),
		"cameras":  cameras(t),
		"software": software(t),
	} {
		results, err := sim.MineAll(DefaultMinerConfig())
		if err != nil {
			t.Fatal(err)
		}
		out[name] = sim.BuildSnapshot(results, 0)
	}
	return out
}

// diffQuerySet builds a query mix exercising every engine path against
// one snapshot: exact canonicals, suffixed queries, typos, junk.
func diffQuerySet(snap *Snapshot) []string {
	qs := []string{
		"", "   ", "the", "best pizza in town",
		"twilght reviews", "quantem of solace tickets",
		"kingdom of the kristol skull showtimes",
	}
	for i, c := range snap.Canonicals {
		switch i % 4 {
		case 0:
			qs = append(qs, c)
		case 1:
			qs = append(qs, c+" showtimes")
		case 2:
			qs = append(qs, "watch "+c+" online")
		case 3:
			if len(c) > 6 {
				// Drop a rune mid-string: a typo the corrector or the
				// span-fuzzy path must absorb.
				qs = append(qs, c[:len(c)/2]+c[len(c)/2+1:])
			}
		}
		if i >= 60 {
			break
		}
	}
	return qs
}

// TestEngineAllocBudget is the allocation gate on the steady-state match
// path: with caching disabled, an exact trie query must perform zero
// heap allocations end to end, and the typo and span-fuzzy classes must
// stay within small fixed budgets (the reference path spends hundreds).
// Budgets are ceilings, not targets — tighten them when the path
// improves, never loosen without understanding what regressed.
func TestEngineAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation disables the inlining the zero-alloc path relies on")
	}
	snap := movieSnapshot(t)
	s := NewMatchServer(snap, ServeConfig{CacheSize: -1})
	classes := []struct {
		name    string
		budget  float64
		mode    match.Mode
		queries []string
	}{
		// Exact trie hits: the dominant production class. Zero.
		{"exact", 0, "", []string{
			"the dark knight tickets",
			"quantum of solace showtimes",
			"madagascar 2 dvd",
		}},
		// Per-token typo correction (edit distance 1 against the vocab).
		{"typo", 2, "", []string{
			"twilght reviews",
			"quantem of solace",
			"madagscar 2 trailer",
		}},
		// Span-level fuzzy resolution through the trigram index. The
		// reference path spends ~530 allocs/op here; the arena must stay
		// at or below 10% of that (ISSUE 6 acceptance), and in practice
		// at a small constant.
		{"span-fuzzy", 16, "", []string{
			"kingdom of the kristol skull showtimes",
			"quntum of solacee",
			"bangkok dangeruos cage movie",
		}},
		// Whole-query fuzzy alternating with a query too short for any
		// trigram: the short lookup must leave the scratch's gram buffer
		// in place for the next one.
		{"fuzzy-short", 0, match.ModeFuzzy, []string{
			"madagascar2",
			"up",
		}},
	}
	for _, c := range classes {
		t.Run(c.name, func(t *testing.T) {
			reqs := make([]match.Request, len(c.queries))
			for i, q := range c.queries {
				reqs[i] = match.Request{Query: q, Mode: c.mode}
			}
			// Warm the scratch pool and every lazily built structure.
			for _, req := range reqs {
				if err := s.DoView(req, func(*match.Response, bool) {}); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			got := testing.AllocsPerRun(300, func() {
				req := reqs[i%len(reqs)]
				i++
				if err := s.DoView(req, func(*match.Response, bool) {}); err != nil {
					t.Fatal(err)
				}
			})
			if got > c.budget {
				t.Errorf("%s: %.1f allocs/op, budget %.0f", c.name, got, c.budget)
			}
			t.Logf("%s: %.1f allocs/op (budget %.0f)", c.name, got, c.budget)
		})
	}
}

// TestMmapColdBoot bounds the decode cost OpenSnapshotMapped was built
// to eliminate: opening a current-version snapshot of each mined corpus
// must finish well under the reload SLO — the fuzzy slabs (the bulk of
// the file) are aliased, not decoded. 50ms is the ISSUE 6 acceptance
// ceiling; the observed cost is dominated by the dictionary section.
func TestMmapColdBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	dir := t.TempDir()
	for name, snap := range allSnapshots(t) {
		path := filepath.Join(dir, name+".snap")
		if err := snap.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		// Best of three: the gate is about decode work, not a cold disk
		// or a scheduler hiccup.
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			got, err := OpenSnapshotMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
			if got.Fuzzy == nil || !got.Fuzzy.Mapped() {
				t.Fatalf("%s: fuzzy index not mapped", name)
			}
		}
		t.Logf("%s: %s mapped open in %v (%d bytes)", name, filepath.Base(path), best, st.Size())
		if best > 50*time.Millisecond {
			t.Errorf("%s: mapped open took %v, budget 50ms", name, best)
		}
	}
}

// TestMappedSnapshotServesIdentically closes the loop on the mmap path
// end to end at the facade level: a server booted from a mapped
// snapshot must answer exactly like one booted from the streamed read
// of the same file, across every corpus.
func TestMappedSnapshotServesIdentically(t *testing.T) {
	dir := t.TempDir()
	for name, snap := range allSnapshots(t) {
		path := filepath.Join(dir, name+".snap")
		if err := snap.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		mapped, err := OpenSnapshotMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := ReadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		a := NewMatchServer(mapped, ServeConfig{CacheSize: -1})
		b := NewMatchServer(streamed, ServeConfig{CacheSize: -1})
		for i, q := range diffQuerySet(snap) {
			if i%3 != 0 {
				continue // a sample is plenty at facade level
			}
			for _, mode := range []match.Mode{match.ModeSegment, match.ModeSpan, match.ModeFuzzy} {
				req := match.Request{Query: q, Mode: mode, TopK: 3}
				ra, errA := a.Do(req)
				rb, errB := b.Do(req)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("%s %s %q: error divergence %v vs %v", name, mode, q, errA, errB)
				}
				ra.Timing, rb.Timing = match.Timing{}, match.Timing{}
				if !reflect.DeepEqual(ra, rb) {
					t.Fatalf("%s %s %q: mapped and streamed servers disagree:\n got %+v\nwant %+v",
						name, mode, q, ra, rb)
				}
			}
		}
	}
}
