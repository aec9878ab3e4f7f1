package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestResolveSpecs(t *testing.T) {
	dir := t.TempDir()
	manifest := func(body string) string {
		t.Helper()
		f, err := os.CreateTemp(dir, "manifest")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(body); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return f.Name()
	}

	cases := []struct {
		name     string
		flags    multiFlag
		manifest string
		want     []domainSpec // nil with wantErr
		wantErr  bool
	}{
		{name: "none (mine at startup)", want: nil},
		{name: "bare path is the default domain", flags: multiFlag{"dict.snap"},
			want: []domainSpec{{"default", "dict.snap"}}},
		{name: "named domains keep their order", flags: multiFlag{"movies=m.snap", " cameras = c.snap "},
			want: []domainSpec{{"movies", "m.snap"}, {"cameras", "c.snap"}}},
		{name: "one named domain", flags: multiFlag{"movies=m.snap"},
			want: []domainSpec{{"movies", "m.snap"}}},
		{name: "manifest after flags", flags: multiFlag{"movies=m.snap"},
			manifest: manifest("# verticals\n\ncameras=c.snap\n  software = s.snap\n"),
			want:     []domainSpec{{"movies", "m.snap"}, {"cameras", "c.snap"}, {"software", "s.snap"}}},
		{name: "bare path mixed with name=path", flags: multiFlag{"dict.snap", "movies=m.snap"}, wantErr: true},
		{name: "bare path mixed with manifest", flags: multiFlag{"dict.snap"},
			manifest: manifest("movies=m.snap\n"), wantErr: true},
		{name: "two bare paths", flags: multiFlag{"a.snap", "b.snap"}, wantErr: true},
		{name: "duplicate names", flags: multiFlag{"movies=a.snap", "movies=b.snap"}, wantErr: true},
		{name: "duplicate across flag and manifest", flags: multiFlag{"movies=a.snap"},
			manifest: manifest("movies=b.snap\n"), wantErr: true},
		{name: "bare path named default twice", flags: multiFlag{"default=a.snap"},
			manifest: manifest("default=b.snap\n"), wantErr: true},
		{name: "empty manifest", manifest: manifest("# nothing here\n\n"), wantErr: true},
		{name: "manifest line without name", manifest: manifest("m.snap\n"), wantErr: true},
		{name: "empty name", flags: multiFlag{"=m.snap"}, wantErr: true},
		{name: "empty path", flags: multiFlag{"movies="}, wantErr: true},
		{name: "missing manifest", manifest: filepath.Join(dir, "absent"), wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := resolveSpecs(tc.flags, tc.manifest)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("accepted: %+v", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestParseCanaries(t *testing.T) {
	one := []string{"default"}
	two := []string{"movies", "cameras"}
	cases := []struct {
		name    string
		flag    string
		domains []string
		want    map[string][]string // nil with wantErr
		wantErr bool
	}{
		{name: "empty", flag: "", domains: two, want: map[string][]string{}},
		{name: "bare entries gate the one domain", flag: "indy 4, madagascar 2,", domains: one,
			want: map[string][]string{"default": {"indy 4", "madagascar 2"}}},
		{name: "bare entry keeps its colon", flag: "Madagascar: Escape 2 Africa", domains: one,
			want: map[string][]string{"default": {"Madagascar: Escape 2 Africa"}}},
		{name: "one domain by name", flag: "default:indy 4", domains: one,
			want: map[string][]string{"default": {"indy 4"}}},
		{name: "one named domain mixes prefixed and bare", flag: "movies:indy 4,madagascar 2", domains: []string{"movies"},
			want: map[string][]string{"movies": {"indy 4", "madagascar 2"}}},
		{name: "several domains", flag: "movies:indy 4, cameras:nikon d80,movies:madagascar 2", domains: two,
			want: map[string][]string{"movies": {"indy 4", "madagascar 2"}, "cameras": {"nikon d80"}}},
		{name: "bare entry with several domains", flag: "indy 4", domains: two, wantErr: true},
		{name: "unknown domain", flag: "movies:indy 4,books:dune", domains: two, wantErr: true},
		{name: "empty query", flag: "movies:", domains: two, wantErr: true},
		{name: "empty domain", flag: ":indy 4", domains: two, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseCanaries(tc.flag, tc.domains)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("accepted: %+v", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}
