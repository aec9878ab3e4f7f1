package match_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"websyn"
	"websyn/internal/match"
)

// snapshotQueries builds a query mix exercising every engine path
// against one snapshot: exact canonicals, suffixed queries, typos, junk.
func snapshotQueries(snap *websyn.Snapshot) []string {
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

// TestArenaDifferentialAllSnapshots is the oracle-vs-arena differential
// gate over every mined corpus: for each snapshot, each mode and each
// query, the serving path (DoView over pooled scratch) must produce a
// response JSON-byte-identical to the reference engine kept as a test
// oracle, Timing aside. This is what licenses the zero-alloc engine to
// be the only one.
func TestArenaDifferentialAllSnapshots(t *testing.T) {
	for name, ds := range map[string]websyn.Dataset{
		"movies":   websyn.Movies,
		"cameras":  websyn.Cameras,
		"software": websyn.SoftwareProducts,
	} {
		t.Run(name, func(t *testing.T) {
			sim, err := websyn.NewSimulation(websyn.Options{Dataset: ds})
			if err != nil {
				t.Fatal(err)
			}
			results, err := sim.MineAll(websyn.DefaultMinerConfig())
			if err != nil {
				t.Fatal(err)
			}
			snap := sim.BuildSnapshot(results, 0)
			s := websyn.NewMatchServer(snap, websyn.ServeConfig{CacheSize: -1})
			eng := s.Engine()
			queries := snapshotQueries(snap)
			modes := []match.Mode{"", match.ModeSegment, match.ModeSpan, match.ModeFuzzy}
			checked := 0
			for _, mode := range modes {
				for _, explain := range []bool{false, true} {
					for _, q := range queries {
						req := match.Request{Query: q, Mode: mode, TopK: 3, Explain: explain}
						want, errWant := eng.OracleMatch(req)
						var got match.Response
						errGot := s.DoView(req, func(res *match.Response, _ bool) {
							got = match.CloneResponse(res)
						})
						if (errWant == nil) != (errGot == nil) {
							t.Fatalf("%s %q explain=%v: error divergence: reference %v, arena %v",
								mode, q, explain, errWant, errGot)
						}
						if errWant != nil {
							continue
						}
						want.Timing, got.Timing = match.Timing{}, match.Timing{}
						wj, _ := json.Marshal(want)
						gj, _ := json.Marshal(got)
						if string(wj) != string(gj) {
							t.Fatalf("%s %q explain=%v: arena diverged from reference:\n got %s\nwant %s",
								mode, q, explain, gj, wj)
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("%s %q explain=%v: deep divergence beyond JSON", mode, q, explain)
						}
						checked++
					}
				}
			}
			t.Logf("%s: %d (mode, explain, query) combinations byte-identical", name, checked)
		})
	}
}
