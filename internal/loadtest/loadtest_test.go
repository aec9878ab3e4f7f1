package loadtest

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"websyn/internal/match"
	"websyn/internal/rewrite"
	"websyn/internal/serve"
)

// newTestHTTP serves snap as a registry of one domain (matchd's bare
// -snapshot boot) over a test listener and returns its base URL.
func newTestHTTP(t *testing.T, snap *serve.Snapshot) string {
	reg := serve.NewRegistry(serve.Config{})
	if _, err := reg.Add("default", snap, serve.SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func testSnapshot() *serve.Snapshot {
	d := match.NewDictionary()
	d.Add("Indiana Jones and the Kingdom of the Crystal Skull",
		match.Entry{EntityID: 0, Score: 1, Source: "canonical"})
	d.Add("indy 4", match.Entry{EntityID: 0, Score: 0.8, Source: "mined"})
	d.Add("Madagascar: Escape 2 Africa", match.Entry{EntityID: 1, Score: 1, Source: "canonical"})
	d.Add("madagascar 2", match.Entry{EntityID: 1, Score: 0.9, Source: "mined"})
	return &serve.Snapshot{
		Dataset:    "Movies",
		MinSim:     0.55,
		Canonicals: []string{"Indiana Jones and the Kingdom of the Crystal Skull", "Madagascar: Escape 2 Africa"},
		Synonyms: map[string][]string{
			"indiana jones and the kingdom of the crystal skull": {"indy 4"},
			"madagascar escape 2 africa":                         {"madagascar 2"},
		},
		Dict:  d,
		Fuzzy: d.NewFuzzyIndex(0.55).Packed(),
	}
}

func TestWorkloadMixAndDeterminism(t *testing.T) {
	w, err := FromSnapshot(testSnapshot(), 42)
	if err != nil {
		t.Fatal(err)
	}
	classes := map[string]int{}
	for _, q := range w.Queries {
		if q.Text == "" {
			t.Fatal("empty query in workload")
		}
		classes[q.Class]++
	}
	for _, c := range []string{ClassExact, ClassTypo, ClassSpanFuzzy, ClassNoise} {
		if classes[c] == 0 {
			t.Errorf("workload has no %s queries: %v", c, classes)
		}
	}
	// Same seed -> same workload; the CI gate depends on reproducible runs.
	w2, err := FromSnapshot(testSnapshot(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.Queries, w2.Queries) {
		t.Fatal("workload not deterministic for a fixed seed")
	}
	w3, _ := FromSnapshot(testSnapshot(), 7)
	if reflect.DeepEqual(w.Queries, w3.Queries) {
		t.Fatal("different seeds produced identical workloads")
	}
}

// testCamerasSnapshot is a second vertical for mixed-domain workloads.
func testCamerasSnapshot() *serve.Snapshot {
	d := match.NewDictionary()
	d.Add("Canon EOS 350D", match.Entry{EntityID: 0, Score: 1, Source: "canonical"})
	d.Add("digital rebel xt", match.Entry{EntityID: 0, Score: 0.9, Source: "mined"})
	return &serve.Snapshot{
		Dataset:    "Cameras",
		MinSim:     0.55,
		Canonicals: []string{"Canon EOS 350D"},
		Synonyms:   map[string][]string{"canon eos 350d": {"digital rebel xt"}},
		Dict:       d,
		Fuzzy:      d.NewFuzzyIndex(0.55).Packed(),
	}
}

func TestFromSnapshotsMixedDomains(t *testing.T) {
	snaps := map[string]*serve.Snapshot{
		"movies":  testSnapshot(),
		"cameras": testCamerasSnapshot(),
	}
	w, err := FromSnapshots(snaps, 42)
	if err != nil {
		t.Fatal(err)
	}
	domains := map[string]int{}
	for _, q := range w.Queries {
		if q.Text == "" {
			t.Fatal("empty query in workload")
		}
		domains[q.Domain]++
	}
	if domains[""] != 0 {
		t.Fatalf("mixed-domain workload has %d domainless queries", domains[""])
	}
	for _, d := range []string{"movies", "cameras", FederatedDomain} {
		if domains[d] == 0 {
			t.Fatalf("workload has no %q queries: %v", d, domains)
		}
	}
	// Deterministic for a fixed seed, like the single-snapshot builder.
	w2, err := FromSnapshots(snaps, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.Queries, w2.Queries) {
		t.Fatal("mixed workload not deterministic for a fixed seed")
	}
	if _, err := FromSnapshots(nil, 1); err == nil {
		t.Fatal("FromSnapshots accepted no snapshots")
	}
}

// TestRunMixedDomainsAgainstRegistry replays a mixed workload at a real
// two-domain registry and checks the per-class and per-domain report
// breakdowns line up with the totals.
func TestRunMixedDomainsAgainstRegistry(t *testing.T) {
	reg := serve.NewRegistry(serve.Config{CacheSize: 32})
	if _, err := reg.Add("movies", testSnapshot(), serve.SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("cameras", testCamerasSnapshot(), serve.SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(ts.Close)

	w, err := FromSnapshots(map[string]*serve.Snapshot{
		"movies":  testSnapshot(),
		"cameras": testCamerasSnapshot(),
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), w, Options{
		URL:         ts.URL,
		QPS:         500,
		Duration:    300 * time.Millisecond,
		Concurrency: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("clean mixed run failed: errors %d, non-200 %d", rep.Errors, rep.Non200)
	}
	var classTotal, domainTotal uint64
	for c, n := range rep.ByClass {
		classTotal += n
		p, ok := rep.LatencyByClass[c]
		if !ok || p.P99 <= 0 || p.P50 > p.P99 {
			t.Fatalf("class %s percentiles implausible: %+v", c, p)
		}
	}
	for d, n := range rep.ByDomain {
		domainTotal += n
		p, ok := rep.LatencyByDomain[d]
		if !ok || p.P99 <= 0 {
			t.Fatalf("domain %s percentiles implausible: %+v", d, p)
		}
	}
	completed := rep.Requests - rep.Errors
	if classTotal != completed {
		t.Fatalf("per-class counts sum to %d, %d requests completed", classTotal, completed)
	}
	if domainTotal != completed {
		t.Fatalf("per-domain counts sum to %d, %d requests completed (every mixed query is routed)", domainTotal, completed)
	}
}

// TestLegacyWorkloadReportOmitsDomains pins the report shape for
// single-snapshot runs: no domain sections, so existing report
// consumers see unchanged JSON.
func TestLegacyWorkloadReportOmitsDomains(t *testing.T) {
	snap := testSnapshot()
	ts := newTestHTTP(t, snap)

	w, err := FromSnapshot(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		if q.Domain != "" {
			t.Fatalf("legacy workload query carries a domain: %+v", q)
		}
	}
	rep, err := Run(context.Background(), w, Options{
		URL:         ts,
		QPS:         500,
		Duration:    200 * time.Millisecond,
		Concurrency: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("clean run failed: %+v", rep)
	}
	if rep.ByDomain != nil || rep.LatencyByDomain != nil {
		t.Fatalf("legacy report grew domain sections: %+v", rep)
	}
	if len(rep.LatencyByClass) == 0 {
		t.Fatal("per-class percentiles missing from legacy report")
	}
}

func TestRunAgainstServer(t *testing.T) {
	snap := testSnapshot()
	ts := newTestHTTP(t, snap)

	w, err := FromSnapshot(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), w, Options{
		URL:         ts,
		QPS:         500,
		Duration:    300 * time.Millisecond,
		Concurrency: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("clean run failed: errors %d, non-200 %d", rep.Errors, rep.Non200)
	}
	if rep.Requests == 0 || rep.Latency.P99 <= 0 || rep.Latency.P50 > rep.Latency.P99 {
		t.Fatalf("implausible report: %+v", rep)
	}
	if rep.ByClass[ClassExact] == 0 {
		t.Fatalf("no exact queries recorded: %+v", rep.ByClass)
	}
}

// TestWorkloadAttributesClass pins the v2 workload class: snapshots
// without a vocabulary generate pure v1 traffic; snapshots with one add
// attribute-shaped queries that the runner sends to /v2/match, and a
// clean run records them without errors.
func TestWorkloadAttributesClass(t *testing.T) {
	w, err := FromSnapshot(testSnapshot(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		if q.Class == ClassAttributes {
			t.Fatalf("vocabulary-less snapshot generated an attributes query: %+v", q)
		}
	}

	snap := testSnapshot()
	snap.Vocab = &rewrite.Vocabulary{
		Domain: "movies",
		Numeric: []rewrite.NumericColumn{{
			Name: "year", Min: 2008, Max: 2008,
			Values:      []float64{2008},
			Comparators: []rewrite.Comparator{{Token: "before", Op: "lt"}},
		}},
		Categorical: []rewrite.CategoricalColumn{
			{Name: "genre", Values: []string{"adventure", "comedy"}},
		},
	}
	wa, err := FromSnapshot(snap, 42)
	if err != nil {
		t.Fatal(err)
	}
	attrs := 0
	for _, q := range wa.Queries {
		if q.Class == ClassAttributes {
			attrs++
		}
	}
	if attrs == 0 {
		t.Fatalf("vocabulary snapshot generated no attributes queries: %d total", len(wa.Queries))
	}

	ts := newTestHTTP(t, snap)
	rep, err := Run(context.Background(), wa, Options{
		URL:         ts,
		QPS:         500,
		Duration:    300 * time.Millisecond,
		Concurrency: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("attributes run failed: errors %d, non-200 %d", rep.Errors, rep.Non200)
	}
	if rep.ByClass[ClassAttributes] == 0 {
		t.Fatalf("no attributes queries recorded: %+v", rep.ByClass)
	}
	if _, ok := rep.LatencyByClass[ClassAttributes]; !ok {
		t.Fatalf("no attributes latency bucket: %+v", rep.LatencyByClass)
	}
}

func TestPercentiles(t *testing.T) {
	ms := make([]float64, 100)
	for i := range ms {
		ms[i] = float64(i + 1) // 1..100
	}
	p := percentiles(ms)
	if p.P50 != 50 || p.P99 != 99 || p.Max != 100 || p.Mean != 50.5 {
		t.Fatalf("percentiles over 1..100: %+v", p)
	}
	if z := percentiles(nil); z != (Percentiles{}) {
		t.Fatalf("empty percentiles: %+v", z)
	}
}
