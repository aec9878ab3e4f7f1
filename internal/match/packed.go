package match

import (
	"fmt"
	"unicode/utf8"
)

// PackedFuzzy is the portable form of a FuzzyIndex's posting lists: the
// interned gram table plus the two contiguous slabs. It is what the serve
// snapshot embeds, so a server boots the fuzzy index with pure array work
// — no per-string re-gramming and no posting-map churn. The per-string
// pruning tables (gram totals, distinct counts) are cheap to rederive and
// are not stored.
//
// A PackedFuzzy is only meaningful against the dictionary it was built
// from: string index i refers to the i-th string of Dictionary.Strings()
// (lexicographic order), which is deterministic for a given dictionary.
type PackedFuzzy struct {
	NumStrings int      // number of indexed strings
	Grams      []string // gram ID -> trigram
	Offsets    []int32  // gram g's postings: Postings[Offsets[g]:Offsets[g+1]]
	Postings   []int32  // string indexes, strictly ascending per gram
	Mults      []int32  // parallel to Postings: gram multiplicity in the string

	// backing pins the owner of the slabs when they alias a memory-mapped
	// snapshot (see MapPackedFuzzy); nil for heap-backed indexes. Every
	// index built from a mapped PackedFuzzy copies the reference so the
	// mapping cannot be unmapped under it.
	backing any
}

// Mapped reports whether the posting slabs alias a memory-mapped
// snapshot file; a FuzzyIndex built from it shares the slabs with the
// page cache.
func (p *PackedFuzzy) Mapped() bool { return p != nil && p.backing != nil }

// Packed exports the index's posting lists. The returned struct shares
// the index's backing arrays and must be treated as read-only. It
// carries the index's mmap pin so the export of a mapped index stays
// valid after the index itself is dropped.
func (fi *FuzzyIndex) Packed() *PackedFuzzy {
	return &PackedFuzzy{
		NumStrings: len(fi.strings),
		Grams:      fi.grams,
		Offsets:    fi.offsets,
		Postings:   fi.postings,
		Mults:      fi.mults,
		backing:    fi.backing,
	}
}

// validate checks the structural invariants scan relies on, against an
// expected string count. It does not re-derive grams from strings — a
// snapshot's integrity is the checksum's job — but nothing read from a
// file may index out of bounds.
func (p *PackedFuzzy) validate(numStrings int) error {
	if p.NumStrings != numStrings {
		return fmt.Errorf("match: packed index covers %d strings, dictionary has %d", p.NumStrings, numStrings)
	}
	if len(p.Offsets) != len(p.Grams)+1 {
		return fmt.Errorf("match: packed index has %d offsets for %d grams", len(p.Offsets), len(p.Grams))
	}
	if len(p.Postings) != len(p.Mults) {
		return fmt.Errorf("match: packed index has %d postings but %d multiplicities", len(p.Postings), len(p.Mults))
	}
	if len(p.Offsets) > 0 && (p.Offsets[0] != 0 || int(p.Offsets[len(p.Offsets)-1]) != len(p.Postings)) {
		return fmt.Errorf("match: packed index offsets do not span the postings")
	}
	for g := 0; g+1 < len(p.Offsets); g++ {
		start, end := p.Offsets[g], p.Offsets[g+1]
		if start > end {
			return fmt.Errorf("match: packed index offsets decrease at gram %d", g)
		}
		for k := start; k < end; k++ {
			idx := p.Postings[k]
			if idx < 0 || int(idx) >= numStrings {
				return fmt.Errorf("match: packed index posting %d out of range [0,%d)", idx, numStrings)
			}
			if k > start && idx <= p.Postings[k-1] {
				return fmt.Errorf("match: packed index postings not ascending for gram %d", g)
			}
			if p.Mults[k] < 1 {
				return fmt.Errorf("match: packed index multiplicity %d < 1", p.Mults[k])
			}
		}
	}
	return nil
}

// stringGramLen is the (multiset) trigram count of an already-normalized
// string — CharNGrams' length without materializing the grams.
func stringGramLen(s string) int32 {
	n := utf8.RuneCountInString(s) - fuzzyGramSize + 1
	if n < 0 {
		return 0
	}
	return int32(n)
}

// deriveTables rebuilds the per-string pruning tables from the packed
// postings: gram totals from string lengths, distinct counts by counting
// each string's posting entries (each distinct (gram, string) pair
// appears exactly once).
func deriveTables(strings []string, postings []int32) (gramLen, distinct []int32) {
	gramLen = make([]int32, len(strings))
	for i, s := range strings {
		gramLen[i] = stringGramLen(s)
	}
	distinct = make([]int32, len(strings))
	for _, idx := range postings {
		distinct[idx]++
	}
	return gramLen, distinct
}

// NewFuzzyIndexFromPacked rebuilds a flat fuzzy index from packed posting
// lists previously exported with Packed from an index over this whole
// dictionary. The index shares the packed struct's backing arrays.
func (d *Dictionary) NewFuzzyIndexFromPacked(p *PackedFuzzy, minSim float64) (*FuzzyIndex, error) {
	if p.NumStrings != d.DistinctStrings() {
		return nil, fmt.Errorf("match: packed index covers %d strings, dictionary has %d", p.NumStrings, d.DistinctStrings())
	}
	strings := d.Strings()
	if err := p.validate(len(strings)); err != nil {
		return nil, err
	}
	fi := &FuzzyIndex{
		dict:     d,
		strings:  strings,
		minSim:   normMinSim(minSim),
		gramID:   make(map[string]int32, len(p.Grams)),
		grams:    p.Grams,
		offsets:  p.Offsets,
		postings: p.Postings,
		mults:    p.Mults,
		backing:  p.backing,
	}
	for i, g := range p.Grams {
		fi.gramID[g] = int32(i)
	}
	fi.gramLen, fi.distinct = deriveTables(strings, p.Postings)
	fi.initScratch()
	return fi, nil
}
