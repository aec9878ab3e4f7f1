package fleet

import (
	"context"
	"net"
	"testing"

	"websyn/internal/match"
	"websyn/internal/serve"
)

// testSnapshot builds the movies fixture shared by the fleet tests:
// small, hand-built, deterministic.
func testSnapshot() *serve.Snapshot {
	d := match.NewDictionary()
	d.Add("Indiana Jones and the Kingdom of the Crystal Skull",
		match.Entry{EntityID: 0, Score: 1, Source: "canonical"})
	d.Add("indy 4", match.Entry{EntityID: 0, Score: 0.8125, Source: "mined"})
	d.Add("indiana jones 4", match.Entry{EntityID: 0, Score: 0.75, Source: "mined"})
	d.Add("Madagascar: Escape 2 Africa", match.Entry{EntityID: 1, Score: 1, Source: "canonical"})
	d.Add("madagascar 2", match.Entry{EntityID: 1, Score: 0.9, Source: "mined"})
	return &serve.Snapshot{
		Dataset: "Movies",
		MinSim:  0.55,
		Fuzzy:   d.NewFuzzyIndex(0.55).Packed(),
		Canonicals: []string{
			"Indiana Jones and the Kingdom of the Crystal Skull",
			"Madagascar: Escape 2 Africa",
		},
		Synonyms: map[string][]string{
			"indiana jones and the kingdom of the crystal skull": {"indy 4", "indiana jones 4"},
			"madagascar escape 2 africa":                         {"madagascar 2"},
		},
		Dict: d,
	}
}

// testSnapshotV2 is the "next publish" of the movies fixture: same
// entities plus a new mined synonym, so its bytes (and SHA) differ.
func testSnapshotV2() *serve.Snapshot {
	snap := testSnapshot()
	snap.Dict.Add("crystal skull", match.Entry{EntityID: 0, Score: 0.7, Source: "mined"})
	snap.Fuzzy = snap.Dict.NewFuzzyIndex(0.55).Packed()
	snap.Synonyms["indiana jones and the kingdom of the crystal skull"] = append(
		snap.Synonyms["indiana jones and the kingdom of the crystal skull"], "crystal skull")
	return snap
}

// testSnapshotCameras is a second vertical for multi-domain fleets.
func testSnapshotCameras() *serve.Snapshot {
	d := match.NewDictionary()
	d.Add("Canon PowerShot SD1100 IS", match.Entry{EntityID: 0, Score: 1, Source: "canonical"})
	d.Add("powershot sd1100", match.Entry{EntityID: 0, Score: 0.9, Source: "mined"})
	d.Add("Nikon D90", match.Entry{EntityID: 1, Score: 1, Source: "canonical"})
	d.Add("nikon d 90", match.Entry{EntityID: 1, Score: 0.85, Source: "mined"})
	return &serve.Snapshot{
		Dataset:    "Cameras",
		MinSim:     0.55,
		Fuzzy:      d.NewFuzzyIndex(0.55).Packed(),
		Canonicals: []string{"Canon PowerShot SD1100 IS", "Nikon D90"},
		Synonyms: map[string][]string{
			"canon powershot sd1100 is": {"powershot sd1100"},
			"nikon d90":                 {"nikon d 90"},
		},
		Dict: d,
	}
}

// startWireServer serves backend over the wire protocol on a loopback
// listener; returned is its address, the Server (for counters), and a
// kill func (idempotent).
func startWireServer(t *testing.T, backend Backend) (string, *Server, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(backend, t.Logf)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ctx, ln); err != nil {
			t.Logf("wire server: %v", err)
		}
	}()
	kill := func() {
		cancel()
		srv.Close()
		<-done
	}
	t.Cleanup(kill)
	return ln.Addr().String(), srv, kill
}

// testBackend is a registry of one domain ("default") over the movies
// fixture — the backend matchd runs for a bare -snapshot path.
func testBackend() Backend {
	reg := serve.NewRegistry(serve.Config{})
	if _, err := reg.Add("default", testSnapshot(), serve.SnapshotMeta{}); err != nil {
		panic(err)
	}
	return reg
}

func matchRequest(query, domain string) match.Request {
	return match.Request{Query: query, Domain: domain}
}
