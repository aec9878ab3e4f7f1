// Package match implements the downstream application the paper's title
// promises: fuzzy matching of free-text Web queries to structured data.
//
// The miner (internal/core) produces, per entity, an expanded set of
// equivalent strings. This package compiles those strings into a token-trie
// dictionary and segments incoming queries against it: the query "indy 4
// near san fran" matches the movie entity on the span "indy 4" and leaves
// the remainder "near san fran" for downstream interpretation (location,
// showtimes, ...), exactly the Bing scenario in the paper's introduction.
//
// Matching is fuzzy on two axes:
//
//   - Vocabulary: the dictionary contains the mined informal strings, not
//     just canonical ones, so "digital rebel xt" resolves to the Canon EOS
//     350D without any textual overlap.
//   - Typos: unknown query tokens are corrected to dictionary vocabulary
//     within edit distance 1 ("twilght" -> "twilight").
package match

import (
	"sort"
	"strings"
	"unicode/utf8"

	"websyn/internal/textnorm"
)

// Entry is one dictionary payload: a string resolves to an entity with a
// confidence score (higher is stronger evidence; the facade feeds mined
// IPC/ICR-derived scores or log frequencies).
type Entry struct {
	EntityID int
	Score    float64
	// Source records where the string came from ("canonical", "mined",
	// "wiki", ...) for diagnostics.
	Source string
}

// trieNode is one node of the token trie.
type trieNode struct {
	children map[string]*trieNode
	entries  []Entry // non-empty when a dictionary string ends here
}

func newTrieNode() *trieNode {
	return &trieNode{children: make(map[string]*trieNode)}
}

// Dictionary is the compiled synonym dictionary.
type Dictionary struct {
	root    *trieNode
	size    int             // (string, entity) pairs
	strings int             // distinct strings
	vocab   map[string]bool // every token appearing in any dictionary string
	typo    typoIndex       // correct's candidate buckets over vocab
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{
		root:  newTrieNode(),
		vocab: make(map[string]bool),
		typo:  typoIndex{heads: make(map[uint64]int32)},
	}
}

// typoIndex buckets the vocabulary tokens of 3+ bytes — the only ones
// correct can return — so a correction reads a few dozen candidates
// instead of the whole vocabulary. Every token sits in two buckets, one
// keyed by (byte length, first byte), one by (byte length, last byte).
// A bucket is a chain: heads maps the bucket key to its most recently
// added word, and next[2*i+side] links word i to the word added before
// it in the same bucket. Links are word index + 1, so 0 ends a chain.
// Single-rune tokens are also listed in runes: a substitution that
// replaces the only rune of a token keeps neither end byte. Add
// maintains the index, so it never needs a rebuild.
type typoIndex struct {
	words []string
	next  []int32
	heads map[uint64]int32
	runes []string
}

// typoKey is the bucket of the tokens of byte length n whose first
// (side 0) or last (side 1) byte is b.
func typoKey(n, side int, b byte) uint64 {
	return uint64(n)<<9 | uint64(side)<<8 | uint64(b)
}

// add indexes a vocabulary token new to the dictionary.
func (x *typoIndex) add(tok string) {
	if len(tok) < 3 {
		return
	}
	link := int32(len(x.words)) + 1
	x.words = append(x.words, tok)
	for side, b := range [2]byte{tok[0], tok[len(tok)-1]} {
		k := typoKey(len(tok), side, b)
		x.next = append(x.next, x.heads[k])
		x.heads[k] = link
	}
	if _, size := utf8.DecodeRuneInString(tok); size == len(tok) {
		x.runes = append(x.runes, tok)
	}
}

// Add inserts one string with its payload. The string is normalized; empty
// strings are ignored. Duplicate (string, entity) pairs keep the higher
// score.
func (d *Dictionary) Add(text string, e Entry) {
	tokens := textnorm.Tokenize(text)
	if len(tokens) == 0 {
		return
	}
	node := d.root
	for _, tok := range tokens {
		if !d.vocab[tok] {
			d.vocab[tok] = true
			d.typo.add(tok)
		}
		next := node.children[tok]
		if next == nil {
			next = newTrieNode()
			node.children[tok] = next
		}
		node = next
	}
	for i := range node.entries {
		if node.entries[i].EntityID == e.EntityID {
			if e.Score > node.entries[i].Score {
				node.entries[i].Score = e.Score
				node.entries[i].Source = e.Source
			}
			return
		}
	}
	if len(node.entries) == 0 {
		d.strings++
	}
	node.entries = append(node.entries, e)
	d.size++
}

// Len returns the number of (string, entity) pairs.
func (d *Dictionary) Len() int { return d.size }

// DistinctStrings returns the number of distinct dictionary strings —
// len(Strings()) without walking the trie. The fuzzy-index loaders use it
// to reject a packed posting file built against a different dictionary.
func (d *Dictionary) DistinctStrings() int { return d.strings }

// HasToken reports whether tok occurs in any dictionary string.
func (d *Dictionary) HasToken(tok string) bool { return d.vocab[tok] }

// Lookup resolves an exact (normalized) string to its entries, best score
// first. It does not segment; see Segment for free-text queries.
func (d *Dictionary) Lookup(text string) []Entry {
	node := d.root
	for _, tok := range textnorm.Tokenize(text) {
		node = node.children[tok]
		if node == nil {
			return nil
		}
	}
	if len(node.entries) == 0 {
		return nil
	}
	out := append([]Entry(nil), node.entries...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].EntityID < out[j].EntityID
	})
	return out
}

// lookupNormEntries resolves an already-normalized string (single-space
// separated tokens, as every indexed string and arena span is) to its
// trie node's entries without tokenizing, copying or sorting — the
// arena path's exact lookup. The returned slice is the node's own
// storage in insertion order: read-only, and not score-sorted (use
// bestEntryOf or sortedEntries).
func (d *Dictionary) lookupNormEntries(text string) []Entry {
	node := d.root
	for len(text) > 0 {
		tok := text
		if i := strings.IndexByte(text, ' '); i >= 0 {
			tok, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		node = node.children[tok]
		if node == nil {
			return nil
		}
	}
	return node.entries
}

// ForEach visits every (string, entries) pair in lexicographic string
// order. The entries slice must not be mutated.
func (d *Dictionary) ForEach(visit func(text string, entries []Entry)) {
	var walk func(node *trieNode, prefix []string)
	walk = func(node *trieNode, prefix []string) {
		if len(node.entries) > 0 {
			visit(joinTokens(prefix), node.entries)
		}
		keys := make([]string, 0, len(node.children))
		for k := range node.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			walk(node.children[k], append(prefix, k))
		}
	}
	walk(d.root, nil)
}

// Strings returns every dictionary string in lexicographic order.
func (d *Dictionary) Strings() []string {
	var out []string
	d.ForEach(func(text string, _ []Entry) { out = append(out, text) })
	return out
}
