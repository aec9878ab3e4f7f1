package websyn

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// movieSnapshot mines the full movie pipeline once and compiles a serving
// snapshot (cached via the shared movie simulation).
func movieSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	sim := movies(t)
	results, err := sim.MineAll(DefaultMinerConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sim.BuildSnapshot(results, 0)
}

// soloRegistry serves snap as a registry of one domain named "default",
// the way matchd serves a bare -snapshot path.
func soloRegistry(t testing.TB, snap *Snapshot, cfg ServeConfig) *Registry {
	t.Helper()
	reg := NewRegistry(cfg)
	if _, err := reg.Add("default", snap, SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestSnapshotRoundTripIdenticalMatches is the end-to-end round-trip
// acceptance test: a server started from snapshot bytes must produce
// byte-identical match results to one built directly from the miner.
func TestSnapshotRoundTripIdenticalMatches(t *testing.T) {
	snap := movieSnapshot(t)

	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Dict.Len() != snap.Dict.Len() {
		t.Fatalf("dictionary size changed through round-trip: %d -> %d",
			snap.Dict.Len(), loaded.Dict.Len())
	}

	direct := NewMatchServer(snap, ServeConfig{CacheSize: -1})
	fromDisk := NewMatchServer(loaded, ServeConfig{CacheSize: -1})
	queries := []string{
		"indy 4 near san fran",
		"dark knight imax tickets",
		"watch madagascar 2 online",
		"twilght reviews",
		"quantum of solace",
		"best pizza in town",
	}
	for _, e := range movies(t).Catalog.All()[:20] {
		queries = append(queries, e.Canonical+" showtimes")
	}
	for _, q := range queries {
		want := direct.Match(q)
		got := fromDisk.Match(q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Match(%q) diverged through snapshot round-trip:\n got %+v\nwant %+v", q, got, want)
		}
	}
}

// TestServeFromSnapshotWithoutMiner proves the production startup path:
// an HTTP server answering /match built from snapshot bytes alone — no
// Simulation, no miner.
func TestServeFromSnapshotWithoutMiner(t *testing.T) {
	var buf bytes.Buffer
	if _, err := movieSnapshot(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	// From here on, only the snapshot bytes are used.
	snap, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(soloRegistry(t, snap, ServeConfig{}).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/match?q=indy+4+near+san+fran")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr MatchResult
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Matches) == 0 ||
		mr.Matches[0].Canonical != "Indiana Jones and the Kingdom of the Crystal Skull" {
		t.Fatalf("snapshot-only server failed the paper's motivating query: %+v", mr)
	}

	// Batch acceptance: >= 100 queries in one POST.
	qs := make([]string, 128)
	for i := range qs {
		qs[i] = fmt.Sprintf("indiana jones 4 screening %d", i)
	}
	body, _ := json.Marshal(struct {
		Queries []string `json:"queries"`
	}{qs})
	bresp, err := http.Post(ts.URL+"/match/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	var br struct {
		Count   int           `json:"count"`
		Results []MatchResult `json:"results"`
	}
	if err := json.NewDecoder(bresp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Count != 128 {
		t.Fatalf("batch count %d", br.Count)
	}
	for i, r := range br.Results {
		if len(r.Matches) == 0 {
			t.Fatalf("batch result %d unmatched: %+v", i, r)
		}
	}

	// The unified endpoint answers from the same snapshot-only server,
	// span-level fuzzy matching included.
	vreq := `{"query": "kingdom of the kristol skull showtimes", "explain": true}`
	vresp, err := http.Post(ts.URL+"/v1/match", "application/json", strings.NewReader(vreq))
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	var vr struct {
		Count   int `json:"count"`
		Results []struct {
			MatchResponse
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.NewDecoder(vresp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	if vr.Count != 1 || vr.Results[0].Error != "" {
		t.Fatalf("v1 response: %+v", vr)
	}
	v := vr.Results[0]
	if len(v.Matches) != 1 ||
		v.Matches[0].Canonical != "Indiana Jones and the Kingdom of the Crystal Skull" {
		t.Fatalf("v1 span-fuzzy failed on the snapshot server: %+v", v.Matches)
	}
	if v.Remainder != "showtimes" || len(v.Trace) == 0 {
		t.Fatalf("v1 remainder/trace: %+v", v)
	}
}
