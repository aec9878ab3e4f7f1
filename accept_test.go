package websyn

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"websyn/internal/eval"
)

// End-to-end acceptance for the /v2/match surface: the full offline
// pipeline (simulation, miner, vocabulary mining, snapshot build) feeding
// a live server, driven with the paper's motivating query shapes. These
// are the PR's contract queries: an entity mention interleaved with
// attribute constraints must come back as {entity, attributes, residual}.

type v2Result struct {
	Matches []struct {
		EntityID  int    `json:"entity_id"`
		Canonical string `json:"canonical"`
		Span      string `json:"span"`
	} `json:"matches"`
	Remainder  string `json:"remainder"`
	Residual   string `json:"residual"`
	Attributes []struct {
		Column     string  `json:"column"`
		Op         string  `json:"op"`
		Value      float64 `json:"value"`
		Text       string  `json:"text"`
		Unit       string  `json:"unit"`
		Span       string  `json:"span"`
		Source     string  `json:"source"`
		Similarity float64 `json:"similarity"`
	} `json:"attributes"`
	Trace []struct {
		Stage string `json:"stage"`
	} `json:"trace"`
	Error string `json:"error"`
}

func postV2(t *testing.T, url, body string) v2Result {
	t.Helper()
	resp, err := http.Post(url+"/v2/match", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var vr struct {
		Results []v2Result `json:"results"`
	}
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	if len(vr.Results) != 1 {
		t.Fatalf("%d results: %s", len(vr.Results), data)
	}
	if vr.Results[0].Error != "" {
		t.Fatalf("per-item error: %s", vr.Results[0].Error)
	}
	return vr.Results[0]
}

func v2TestServer(t *testing.T, sim *Simulation) *httptest.Server {
	t.Helper()
	results, err := sim.MineAll(DefaultMinerConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := sim.BuildSnapshot(results, 0)
	if snap.Vocab == nil {
		t.Fatal("BuildSnapshot produced no attribute vocabulary")
	}
	ts := httptest.NewServer(soloRegistry(t, snap, ServeConfig{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestAcceptanceCameraQuery is the ISSUE's flagship query: "cheap canon
// 40d lens under $500" must resolve the Canon EOS 40D entity plus two
// typed price predicates, leaving "lens" as residual.
func TestAcceptanceCameraQuery(t *testing.T) {
	ts := v2TestServer(t, cameras(t))
	r := postV2(t, ts.URL, `{"query": "cheap canon 40d lens under $500", "explain": true}`)

	if len(r.Matches) != 1 || r.Matches[0].Canonical != "Canon EOS 40D" {
		t.Fatalf("matches = %+v", r.Matches)
	}
	if r.Residual != "lens" {
		t.Errorf("residual = %q, want \"lens\"", r.Residual)
	}
	if len(r.Attributes) != 2 {
		t.Fatalf("attributes = %+v, want band + comparator", r.Attributes)
	}
	band := r.Attributes[0]
	if band.Column != "price" || band.Op != "lte" || band.Source != "band" ||
		band.Span != "cheap" || band.Unit != "usd" || band.Value <= 0 {
		t.Errorf("band predicate = %+v", band)
	}
	cmp := r.Attributes[1]
	if cmp.Column != "price" || cmp.Op != "lt" || cmp.Value != 500 ||
		cmp.Source != "comparator" || cmp.Span != "under 500" {
		t.Errorf("comparator predicate = %+v", cmp)
	}
	sawRewrite := false
	for _, step := range r.Trace {
		if step.Stage == "rewrite" {
			sawRewrite = true
		}
	}
	if !sawRewrite {
		t.Error("no rewrite trace steps")
	}
}

// TestAcceptanceMovieQuery: "kingdom of the crystal skull 2008 adventure"
// resolves the Indiana Jones entity plus year and genre predicates.
func TestAcceptanceMovieQuery(t *testing.T) {
	ts := v2TestServer(t, movies(t))
	r := postV2(t, ts.URL, `{"query": "kingdom of the crystal skull 2008 adventure"}`)

	if len(r.Matches) != 1 ||
		r.Matches[0].Canonical != "Indiana Jones and the Kingdom of the Crystal Skull" {
		t.Fatalf("matches = %+v", r.Matches)
	}
	if r.Residual != "" {
		t.Errorf("residual = %q, want empty (every token consumed)", r.Residual)
	}
	if len(r.Attributes) != 2 {
		t.Fatalf("attributes = %+v, want year + genre", r.Attributes)
	}
	year := r.Attributes[0]
	if year.Column != "year" || year.Op != "eq" || year.Value != 2008 || year.Source != "value" {
		t.Errorf("year predicate = %+v", year)
	}
	genre := r.Attributes[1]
	if genre.Column != "genre" || genre.Op != "eq" || genre.Text != "adventure" {
		t.Errorf("genre predicate = %+v", genre)
	}
}

// TestAcceptanceEvalSets runs the curated per-domain acceptance sets
// (internal/eval) through the full pipeline: every domain's set must
// pass completely against a snapshot-built server.
func TestAcceptanceEvalSets(t *testing.T) {
	sims := map[string]*Simulation{
		"movies":  movies(t),
		"cameras": cameras(t),
	}
	sw, err := NewSimulation(Options{Dataset: SoftwareProducts})
	if err != nil {
		t.Fatal(err)
	}
	sims["software"] = sw

	for _, set := range eval.AttributeSets() {
		sim, ok := sims[set.Domain]
		if !ok {
			t.Fatalf("acceptance set for unknown domain %q", set.Domain)
		}
		results, err := sim.MineAll(DefaultMinerConfig())
		if err != nil {
			t.Fatal(err)
		}
		s := NewMatchServer(sim.BuildSnapshot(results, 0), ServeConfig{CacheSize: -1})
		rep := eval.EvaluateAttributes(set, func(q string) (*MatchResponse, error) {
			res, err := s.Do(MatchRequest{Query: q, Rewrite: true})
			return &res, err
		})
		if !rep.Pass() {
			t.Errorf("%s", eval.FormatAttributeReport(rep))
		}
	}
}

// TestAcceptanceFuzzyBrand: the categorical vocabulary rides the same
// trigram machinery as entities — "cannon" (a misspelled brand with no
// entity anchor nearby) still yields brand=canon.
func TestAcceptanceFuzzyBrand(t *testing.T) {
	ts := v2TestServer(t, cameras(t))
	r := postV2(t, ts.URL, `{"query": "powershot sd1100 cannon"}`)

	found := false
	for _, p := range r.Attributes {
		if p.Column == "brand" && p.Text == "canon" && p.Source == "value-fuzzy" {
			if p.Similarity <= 0 || p.Similarity >= 1 {
				t.Errorf("fuzzy brand similarity = %g", p.Similarity)
			}
			found = true
		}
	}
	if !found {
		t.Errorf("no fuzzy brand predicate in %+v (residual %q)", r.Attributes, r.Residual)
	}
}
