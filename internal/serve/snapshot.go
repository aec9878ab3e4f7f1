// Package serve is the online half of the reproduction: a production
// serving layer over the artifacts the offline pipeline mines.
//
// The paper's system splits cleanly in two. Offline, the miner chews
// through search and click logs and emits a synonym dictionary; online, a
// low-latency tier matches live Web queries against that dictionary. This
// package implements the online tier:
//
//   - Snapshot: a versioned binary serialization of everything the online
//     tier needs (compiled dictionary, entity table, synonym map), so a
//     server starts in milliseconds instead of re-running the miner.
//   - Server: HTTP handlers for single-query match, batched match with a
//     bounded worker pool, whole-string fuzzy lookup, synonym
//     listing, and a /statsz observability endpoint.
//   - An LRU request cache keyed on the normalized query, with hit/miss
//     counters.
//   - An atomic generation handle (Prepare/Install) so the whole
//     snapshot-derived state hot-swaps without dropping traffic; the
//     watcher driving it lives in internal/serve/reload.
//
// cmd/matchd is a thin flag-parsing wrapper around this package, and
// cmd/dictbuild produces Snapshot files.
package serve

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"websyn/internal/match"
	"websyn/internal/rewrite"
)

// Snapshot bundles the online tier's read-only state: the compiled match
// dictionary, the entity table (ID -> canonical string), and the mined
// synonym listing per canonical norm. It is what dictbuild writes and
// matchd -snapshot loads.
type Snapshot struct {
	// Dataset names the data set the dictionary was mined from
	// ("Movies", "Cameras", ...). Informational.
	Dataset string
	// MinSim is the Dice-similarity threshold the fuzzy index should be
	// built with (the value the dictionary was tuned against offline).
	MinSim float64
	// Canonicals maps entity ID (the slice index) to the entity's
	// canonical string.
	Canonicals []string
	// Synonyms maps a canonical string's normalized form to its mined
	// synonyms.
	Synonyms map[string][]string
	// Dict is the compiled synonym dictionary.
	Dict *match.Dictionary
	// Fuzzy is the precomputed packed trigram index over Dict's strings
	// (version 2 snapshots). When nil — a version 1 snapshot, or a
	// builder that skipped it — servers rebuild the index from Dict.
	Fuzzy *match.PackedFuzzy
	// Vocab is the domain's attribute vocabulary for the structured
	// rewrite stage (version 4 snapshots). When nil — an older snapshot,
	// or a builder without entity-table access — the /v2 surface still
	// serves, with empty attribute lists and residual == remainder.
	Vocab *rewrite.Vocabulary
	// Version is the file layout version this snapshot was read from;
	// 0 for snapshots built in-process (never serialized). Writers
	// ignore it — WriteTo always emits the current SnapshotVersion.
	Version int
}

// Snapshot file layout (all integers uvarint unless noted, all strings
// uvarint length + UTF-8 bytes):
//
//	magic "WSNP", version byte,
//	dataset string,
//	minSim float64 bits (fixed 8 bytes, big endian),
//	entity count, then per entity (ID = position): canonical string,
//	synonym-record count, then per record:
//	  norm string, synonym count, synonyms,
//	dictionary distinct-string count, then per string:
//	  text string, entry count, then per entry:
//	    entityID, score float64 bits (fixed 8 bytes), source string,
//	[version >= 2] packed fuzzy-index presence byte (0 or 1), then when
//	  present the packed index — version 2: the uvarint/delta stream of
//	  match.PackedFuzzy.WriteBinary; version 3: the aligned raw slab
//	  layout of match.PackedFuzzy.WriteRaw, which a memory-mapped reader
//	  aliases in place (see OpenSnapshotMapped),
//	[version >= 4] attribute-vocabulary presence byte (0 or 1), then when
//	  present: blob length, then the rewrite.Vocabulary binary form
//	  (internal/rewrite's self-contained codec),
//	CRC-32 (IEEE) of everything above (fixed 4 bytes, big endian).
//
// The version byte is bumped on any incompatible layout change; readers
// reject versions they don't know, but version 1 files (no fuzzy
// section) stay readable — servers rebuild the index from the
// dictionary — and version 2/3 files decode as before, simply without a
// vocabulary. The trailing checksum catches truncated or corrupted
// files before a server boots on bad data.

var snapshotMagic = [4]byte{'W', 'S', 'N', 'P'}

// SnapshotVersion is the current snapshot layout version. Version 2
// added the embedded packed fuzzy index; version 3 stores it as aligned
// fixed-width slabs so OpenSnapshotMapped can serve it straight from
// the page cache; version 4 appends the attribute vocabulary behind the
// fuzzy section.
const SnapshotVersion = 4

// maxVocabBlob bounds the serialized attribute vocabulary; a larger
// length prefix means a corrupt file and must not drive an allocation.
const maxVocabBlob = 1 << 24

// crcWriter hashes every byte it forwards.
type crcWriter struct {
	w   *bufio.Writer
	sum hash.Hash32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.sum.Write(p[:n])
	cw.n += int64(n)
	return n, err
}

// WriteTo serializes the snapshot. It returns the number of bytes
// written.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	return s.WriteToVersion(w, SnapshotVersion)
}

// WriteToVersion serializes a specific layout version — version 1 omits
// the fuzzy section. Crossgrade tests and downgrade tooling use it to
// produce older-format files; everyone else wants WriteTo.
func (s *Snapshot) WriteToVersion(w io.Writer, version byte) (int64, error) {
	if version < 1 || version > SnapshotVersion {
		return 0, fmt.Errorf("serve: cannot write snapshot version %d (valid: 1..%d)", version, SnapshotVersion)
	}
	return s.writeTo(w, version)
}

func (s *Snapshot) writeTo(w io.Writer, version byte) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw, sum: crc32.NewIEEE()}
	var scratch [binary.MaxVarintLen64]byte

	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := cw.Write(scratch[:n])
		return err
	}
	writeString := func(str string) error {
		if err := writeUvarint(uint64(len(str))); err != nil {
			return err
		}
		_, err := io.WriteString(cw, str)
		return err
	}
	writeFloat := func(f float64) error {
		binary.BigEndian.PutUint64(scratch[:8], math.Float64bits(f))
		_, err := cw.Write(scratch[:8])
		return err
	}

	if _, err := cw.Write(snapshotMagic[:]); err != nil {
		return cw.n, err
	}
	if _, err := cw.Write([]byte{version}); err != nil {
		return cw.n, err
	}
	if err := writeString(s.Dataset); err != nil {
		return cw.n, err
	}
	if err := writeFloat(s.MinSim); err != nil {
		return cw.n, err
	}

	if err := writeUvarint(uint64(len(s.Canonicals))); err != nil {
		return cw.n, err
	}
	for _, c := range s.Canonicals {
		if err := writeString(c); err != nil {
			return cw.n, err
		}
	}

	if err := writeUvarint(uint64(len(s.Synonyms))); err != nil {
		return cw.n, err
	}
	for _, norm := range sortedKeys(s.Synonyms) {
		if err := writeString(norm); err != nil {
			return cw.n, err
		}
		syns := s.Synonyms[norm]
		if err := writeUvarint(uint64(len(syns))); err != nil {
			return cw.n, err
		}
		for _, syn := range syns {
			if err := writeString(syn); err != nil {
				return cw.n, err
			}
		}
	}

	// One trie walk: collect the (text, entries) pairs, then write them
	// behind the count they determine.
	type dictString struct {
		text    string
		entries []match.Entry
	}
	var dictStrings []dictString
	s.Dict.ForEach(func(text string, entries []match.Entry) {
		dictStrings = append(dictStrings, dictString{text, entries})
	})
	if err := writeUvarint(uint64(len(dictStrings))); err != nil {
		return cw.n, err
	}
	for _, ds := range dictStrings {
		if err := writeString(ds.text); err != nil {
			return cw.n, err
		}
		if err := writeUvarint(uint64(len(ds.entries))); err != nil {
			return cw.n, err
		}
		for _, e := range ds.entries {
			if err := writeUvarint(uint64(e.EntityID)); err != nil {
				return cw.n, err
			}
			if err := writeFloat(e.Score); err != nil {
				return cw.n, err
			}
			if err := writeString(e.Source); err != nil {
				return cw.n, err
			}
		}
	}

	if version >= 2 {
		if s.Fuzzy == nil {
			if _, err := cw.Write([]byte{0}); err != nil {
				return cw.n, err
			}
		} else {
			if _, err := cw.Write([]byte{1}); err != nil {
				return cw.n, err
			}
			if version >= 3 {
				// The raw writer pads from the current file offset so the
				// slabs land at mmap-friendly alignment.
				if err := s.Fuzzy.WriteRaw(cw, cw.n); err != nil {
					return cw.n, err
				}
			} else if err := s.Fuzzy.WriteBinary(cw); err != nil {
				return cw.n, err
			}
		}
	}

	if version >= 4 {
		if s.Vocab == nil {
			if _, err := cw.Write([]byte{0}); err != nil {
				return cw.n, err
			}
		} else {
			if _, err := cw.Write([]byte{1}); err != nil {
				return cw.n, err
			}
			blob := s.Vocab.AppendBinary(nil)
			if err := writeUvarint(uint64(len(blob))); err != nil {
				return cw.n, err
			}
			if _, err := cw.Write(blob); err != nil {
				return cw.n, err
			}
		}
	}

	// Trailing checksum of everything written so far (not itself hashed).
	binary.BigEndian.PutUint32(scratch[:4], cw.sum.Sum32())
	if _, err := bw.Write(scratch[:4]); err != nil {
		return cw.n, err
	}
	cw.n += 4
	return cw.n, bw.Flush()
}

// snapReader counts and (optionally) hashes every byte it yields; it
// satisfies io.ByteReader so binary.ReadUvarint can consume it
// directly. The byte count drives the version 3 fuzzy section's
// alignment padding; sum is nil when integrity was already verified
// up front (the memory-mapped path checksums the whole file in one
// pass before parsing).
type snapReader struct {
	r interface {
		io.Reader
		io.ByteReader
	}
	sum hash.Hash32
	n   int64
}

func (cr *snapReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if cr.sum != nil {
		cr.sum.Write(p[:n])
	}
	cr.n += int64(n)
	return n, err
}

func (cr *snapReader) ReadByte() (byte, error) {
	b, err := cr.r.ReadByte()
	if err == nil {
		if cr.sum != nil {
			cr.sum.Write([]byte{b})
		}
		cr.n++
	}
	return b, err
}

// maxSnapshotString bounds one serialized string; a longer length prefix
// means a corrupt file and must not drive an allocation.
const maxSnapshotString = 1 << 20

// ReadSnapshot loads a snapshot serialized by WriteTo, verifying the
// layout version and the trailing checksum.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	cr := &snapReader{r: bufio.NewReader(r), sum: crc32.NewIEEE()}
	return readSnapshotFrom(cr, nil, nil)
}

// readSnapshotFrom is the shared decode core. mapped, when non-nil, is
// the whole serialized file held in memory (an mmap) that cr is reading
// from: the version 3 fuzzy section is then aliased in place via
// match.MapPackedFuzzy with pin as its lifetime anchor, instead of
// decoded onto the heap, and cr.sum is expected to be nil (integrity
// pre-verified).
func readSnapshotFrom(cr *snapReader, mapped []byte, pin any) (*Snapshot, error) {

	readUvarint := func() (uint64, error) { return binary.ReadUvarint(cr) }
	readString := func() (string, error) {
		n, err := readUvarint()
		if err != nil {
			return "", err
		}
		if n > maxSnapshotString {
			return "", fmt.Errorf("string length %d exceeds limit", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(cr, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	readFloat := func() (float64, error) {
		var buf [8]byte
		if _, err := io.ReadFull(cr, buf[:]); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.BigEndian.Uint64(buf[:])), nil
	}

	var magic [4]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, fmt.Errorf("serve: reading snapshot magic: %w", err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("serve: bad snapshot magic %q", magic[:])
	}
	ver, err := cr.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("serve: reading snapshot version: %w", err)
	}
	if ver < 1 || ver > SnapshotVersion {
		return nil, fmt.Errorf("serve: snapshot version %d, this binary reads 1..%d", ver, SnapshotVersion)
	}

	snap := &Snapshot{Version: int(ver)}
	if snap.Dataset, err = readString(); err != nil {
		return nil, fmt.Errorf("serve: reading dataset: %w", err)
	}
	if snap.MinSim, err = readFloat(); err != nil {
		return nil, fmt.Errorf("serve: reading minSim: %w", err)
	}

	nEnt, err := readUvarint()
	if err != nil {
		return nil, fmt.Errorf("serve: reading entity count: %w", err)
	}
	snap.Canonicals = make([]string, 0, int(min(nEnt, 1<<20)))
	for i := uint64(0); i < nEnt; i++ {
		c, err := readString()
		if err != nil {
			return nil, fmt.Errorf("serve: reading entity %d: %w", i, err)
		}
		snap.Canonicals = append(snap.Canonicals, c)
	}

	nSyn, err := readUvarint()
	if err != nil {
		return nil, fmt.Errorf("serve: reading synonym-record count: %w", err)
	}
	snap.Synonyms = make(map[string][]string, int(min(nSyn, 1<<20)))
	for i := uint64(0); i < nSyn; i++ {
		norm, err := readString()
		if err != nil {
			return nil, fmt.Errorf("serve: reading synonym record %d: %w", i, err)
		}
		cnt, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("serve: reading synonym count for %q: %w", norm, err)
		}
		syns := make([]string, 0, int(min(cnt, 1<<16)))
		for j := uint64(0); j < cnt; j++ {
			syn, err := readString()
			if err != nil {
				return nil, fmt.Errorf("serve: reading synonym %d of %q: %w", j, norm, err)
			}
			syns = append(syns, syn)
		}
		snap.Synonyms[norm] = syns
	}

	nStr, err := readUvarint()
	if err != nil {
		return nil, fmt.Errorf("serve: reading dictionary string count: %w", err)
	}
	snap.Dict = match.NewDictionary()
	for i := uint64(0); i < nStr; i++ {
		text, err := readString()
		if err != nil {
			return nil, fmt.Errorf("serve: reading dictionary string %d: %w", i, err)
		}
		cnt, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("serve: reading entry count for %q: %w", text, err)
		}
		for j := uint64(0); j < cnt; j++ {
			id, err := readUvarint()
			if err != nil {
				return nil, fmt.Errorf("serve: reading entity ID (%q entry %d): %w", text, j, err)
			}
			score, err := readFloat()
			if err != nil {
				return nil, fmt.Errorf("serve: reading score (%q entry %d): %w", text, j, err)
			}
			source, err := readString()
			if err != nil {
				return nil, fmt.Errorf("serve: reading source (%q entry %d): %w", text, j, err)
			}
			snap.Dict.Add(text, match.Entry{EntityID: int(id), Score: score, Source: source})
		}
	}

	if ver >= 2 {
		present, err := cr.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("serve: reading fuzzy-index presence: %w", err)
		}
		switch present {
		case 0:
		case 1:
			switch {
			case ver >= 3 && mapped != nil:
				// Alias the raw slabs in place; advance cr past the section
				// so any trailing layout stays in sync.
				p, end, err := match.MapPackedFuzzy(mapped, cr.n, pin)
				if err != nil {
					return nil, fmt.Errorf("serve: mapping packed fuzzy index: %w", err)
				}
				if _, err := io.CopyN(io.Discard, cr, end-cr.n); err != nil {
					return nil, fmt.Errorf("serve: skipping mapped fuzzy index: %w", err)
				}
				snap.Fuzzy = p
			case ver >= 3:
				snap.Fuzzy, err = match.ReadPackedFuzzyRaw(cr, cr.n)
				if err != nil {
					return nil, fmt.Errorf("serve: reading packed fuzzy index: %w", err)
				}
			default:
				// cr implements io.ByteReader, so the packed reader consumes
				// exactly the section and leaves the checksum in place.
				snap.Fuzzy, err = match.ReadPackedFuzzy(cr)
				if err != nil {
					return nil, fmt.Errorf("serve: reading packed fuzzy index: %w", err)
				}
			}
		default:
			return nil, fmt.Errorf("serve: bad fuzzy-index presence byte %d", present)
		}
	}

	if ver >= 4 {
		present, err := cr.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("serve: reading vocabulary presence: %w", err)
		}
		switch present {
		case 0:
		case 1:
			n, err := readUvarint()
			if err != nil {
				return nil, fmt.Errorf("serve: reading vocabulary length: %w", err)
			}
			if n > maxVocabBlob {
				return nil, fmt.Errorf("serve: vocabulary length %d exceeds limit", n)
			}
			blob := make([]byte, n)
			if _, err := io.ReadFull(cr, blob); err != nil {
				return nil, fmt.Errorf("serve: reading vocabulary: %w", err)
			}
			if snap.Vocab, err = rewrite.DecodeBinary(blob); err != nil {
				return nil, fmt.Errorf("serve: decoding vocabulary: %w", err)
			}
		default:
			return nil, fmt.Errorf("serve: bad vocabulary presence byte %d", present)
		}
	}

	var stored [4]byte
	if _, err := io.ReadFull(cr.r, stored[:]); err != nil {
		return nil, fmt.Errorf("serve: reading snapshot checksum: %w", err)
	}
	if cr.sum != nil {
		if got, want := binary.BigEndian.Uint32(stored[:]), cr.sum.Sum32(); got != want {
			return nil, fmt.Errorf("serve: snapshot checksum mismatch (stored %08x, computed %08x)", got, want)
		}
	}
	return snap, nil
}

// WriteFile serializes the snapshot to a file, replacing any existing
// content atomically (write to a temp file, then rename).
func (s *Snapshot) WriteFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snap-*")
	if err != nil {
		return fmt.Errorf("serve: creating snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := s.WriteTo(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: writing snapshot: %w", err)
	}
	// CreateTemp's 0600 would make the artifact unreadable by a service
	// user other than the builder; open it up to a normal file mode.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: setting snapshot permissions: %w", err)
	}
	// Flush to stable storage before the rename makes it visible, so a
	// crash cannot install a truncated snapshot.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: closing snapshot temp file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("serve: installing snapshot: %w", err)
	}
	return nil
}

// ReadSnapshotFile loads a snapshot from a file.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: opening snapshot: %w", err)
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// ReadSnapshotFileHashed loads a snapshot while streaming its bytes
// through SHA-256, returning the hex digest of the whole file alongside
// it — the provenance hash matchd boots with and the reload watcher
// keys its change detection on. Hashing during the parse avoids holding
// the file in memory next to the decoded dictionary.
func ReadSnapshotFileHashed(path string) (*Snapshot, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", fmt.Errorf("serve: opening snapshot: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	snap, err := ReadSnapshot(io.TeeReader(f, h))
	if err != nil {
		return nil, "", err
	}
	// Drain anything past the checksum (a valid file has none) so the
	// digest always covers the whole file, matching any independent
	// whole-file hash.
	if _, err := io.Copy(h, f); err != nil {
		return nil, "", fmt.Errorf("serve: reading snapshot tail: %w", err)
	}
	return snap, hex.EncodeToString(h.Sum(nil)), nil
}

// sortedKeys returns the map's keys in ascending order so snapshot bytes
// are deterministic for a given state.
func sortedKeys(m map[string][]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
