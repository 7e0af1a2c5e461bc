package textindex

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Index is an inverted index over a document collection. It supports
// the two operations the metasearching paper needs from a database:
//
//   - MatchCount: the number of documents containing every query term
//     (boolean AND), i.e. the document-frequency-based relevancy r(db,q)
//     of Section 2.1, the quantity "many databases report ... in their
//     answer page";
//   - Search: top-k documents by tf·idf cosine similarity, supporting
//     the document-similarity-based relevancy definition and result
//     fusion.
//
// An Index is safe for concurrent readers once building has finished;
// AddTerms and Compact must not race with queries.
type Index struct {
	// postings holds each term's list; after Compact the lists' bytes
	// are capped windows of one arena.
	postings map[string]plist
	docIDs   []string
	// totalTerms is the number of term occurrences indexed so far.
	totalTerms int

	// docNorm holds the tf·idf vector norms of the current build. The
	// first Search after a change computes them, once, under normOnce
	// however many readers arrive together; AddTerms re-arms it.
	docNorm  []float64
	normOnce sync.Once

	// counts is AddTerms' term-frequency scratch: one map for every
	// document, left empty between documents.
	counts map[string]int32
}

// blockLen is the number of postings in a complete block of a posting
// list (BenchmarkMatchCount in internal/hidden pins it).
const blockLen = 64

// plist is one term's posting list, its postings in ordinal order
// encoded as one byte string: n/blockLen complete blocks, then a tail of
// the other n%blockLen postings. A posting is a pair of uvarints, its
// ordinal's gap from the posting before it and its term frequency; the
// first posting's gap counts from ordinal −1, so every gap is at least 1.
// A complete block is a header of two uvarints followed by its blockLen
// pairs. The header holds the gap from the previous block's last ordinal
// (−1 for the first block) to this block's, and the byte length of the
// pairs, so a reader steps over a block that ends before the document
// it seeks on its header alone. The tail has no header: a posting
// appended to it goes at the end of the bytes, and the header goes in
// front of its pairs when they make a block.
type plist struct {
	data []byte
	// n is the number of postings, the term's document frequency.
	n int32
	// last is the ordinal of the last posting, when n > 0.
	last int32
}

// add appends a posting for document doc, which must follow every
// document on the list, with term frequency tf.
func (pl *plist) add(doc, tf int32) {
	prev := pl.last
	if pl.n == 0 {
		prev = -1
	}
	pl.data = binary.AppendUvarint(pl.data, uint64(doc-prev))
	pl.data = binary.AppendUvarint(pl.data, uint64(tf))
	pl.last = doc
	pl.n++
	if pl.n%blockLen == 0 {
		pl.seal()
	}
}

// seal puts a header in front of the tail's pairs, which make a block.
// The bytes move up only when the list has room for the header beside
// them; a list capped where it ends (Compact) is copied, so no other
// list is written over.
func (pl *plist) seal() {
	c := pl.cursor()
	for c.rest > blockLen {
		c.enter()
		c.skipBlock()
	}
	var buf [2 * binary.MaxVarintLen32]byte
	hdr := binary.AppendUvarint(buf[:0], uint64(pl.last-c.doc))
	hdr = binary.AppendUvarint(hdr, uint64(len(pl.data)-c.at))
	pl.data = slices.Insert(pl.data, c.at, hdr...)
}

// cursor reads one posting list in ordinal order; doc and tf are the
// posting it stands on, doc −1 before the first.
type cursor struct {
	data []byte
	// at is the next byte to read.
	at int
	// rest counts the postings not yet read, left those of the current
	// block or tail.
	rest, left int32
	// blockLast and end are the current block's last ordinal and the
	// end of its pairs; in the tail, blockLast is MaxInt32.
	blockLast int32
	end       int
	doc, tf   int32
}

func (pl plist) cursor() cursor { return cursor{data: pl.data, rest: pl.n, doc: -1} }

// next moves to the next posting and reports whether there was one.
func (c *cursor) next() bool {
	if c.left == 0 {
		if c.rest == 0 {
			return false
		}
		c.enter()
	}
	c.step()
	return true
}

// seek moves to the first posting at or after ordinal d, staying put if
// the cursor stands on one, and reports whether there is one. It steps
// over every block that ends before d on its header.
func (c *cursor) seek(d int32) bool {
	for c.doc < d {
		if c.left == 0 {
			if c.rest == 0 {
				return false
			}
			c.enter()
		}
		if d > c.blockLast {
			c.skipBlock()
			continue
		}
		c.step()
	}
	return true
}

// enter starts the block or the tail at c.at, reading a block's header.
// A block starts there when blockLen or more postings are left.
func (c *cursor) enter() {
	if c.rest < blockLen {
		c.left, c.blockLast = c.rest, math.MaxInt32
		return
	}
	c.blockLast = c.doc + int32(c.uvarint())
	size := int(c.uvarint())
	c.left, c.end = blockLen, c.at+size
}

// skipBlock leaves the current block's unread postings behind, standing
// on its last one.
func (c *cursor) skipBlock() {
	c.at, c.doc = c.end, c.blockLast
	c.rest -= c.left
	c.left = 0
}

// step reads the current block's next posting.
func (c *cursor) step() {
	c.doc += int32(c.uvarint())
	c.tf = int32(c.uvarint())
	c.left--
	c.rest--
}

func (c *cursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.data[c.at:])
	c.at += n
	return v
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		postings: make(map[string]plist),
		counts:   make(map[string]int32),
	}
}

// AddTerms indexes one document, given as its normalized terms (from
// Tokenize), under the given external ID and returns its internal
// ordinal. IDs need not be unique, but distinct IDs make search results
// easier to interpret. Each posting list gains at most one posting, at
// its end, so the lists stay in ordinal order whatever order the map
// yields its terms in.
func (ix *Index) AddTerms(id string, terms []string) int {
	ord := int32(len(ix.docIDs))
	ix.docIDs = append(ix.docIDs, id)
	for _, t := range terms {
		ix.counts[t]++
	}
	ix.totalTerms += len(terms)
	for term, tf := range ix.counts {
		pl := ix.postings[term]
		pl.add(ord, tf)
		ix.postings[term] = pl
	}
	clear(ix.counts)
	ix.normOnce = sync.Once{}
	return int(ord)
}

// Compact moves every posting list into one arena sized to their
// total, so no list keeps the spare capacity that appending left it, and
// trims the document IDs to their length. Call it once building is done.
// Each list is capped where it ends, so a later AddTerms re-grows only
// the lists it touches.
func (ix *Index) Compact() {
	ix.docIDs = append(make([]string, 0, len(ix.docIDs)), ix.docIDs...)
	total := 0
	for _, pl := range ix.postings {
		total += len(pl.data)
	}
	arena := make([]byte, 0, total)
	for term, pl := range ix.postings {
		at := len(arena)
		arena = append(arena, pl.data...)
		pl.data = arena[at:len(arena):len(arena)]
		ix.postings[term] = pl
	}
}

// Size returns the number of indexed documents (|db| in Eq. 1).
func (ix *Index) Size() int { return len(ix.docIDs) }

// DocID returns the external ID of the document at ordinal ord.
func (ix *Index) DocID(ord int) string { return ix.docIDs[ord] }

// TotalTerms returns the total number of term occurrences indexed (the
// collection word count cw used by CORI-style selection).
func (ix *Index) TotalTerms() int { return ix.totalTerms }

// VocabularyFrequencies returns (term, document frequency) for every
// distinct term — the raw material of a content summary (Figure 2 of
// the paper).
func (ix *Index) VocabularyFrequencies() map[string]int {
	out := make(map[string]int, len(ix.postings))
	for term, pl := range ix.postings {
		out[term] = int(pl.n)
	}
	return out
}

// MatchCount returns the number of documents containing all query
// terms (boolean AND over the normalized terms). A query that
// normalizes to no terms matches nothing; duplicate terms are
// deduplicated. Beyond what tokenizing the query takes, it allocates
// nothing for up to eight distinct terms.
func (ix *Index) MatchCount(query string) int {
	var buf [8]cursor
	cs := ix.queryCursors(query, buf[:0])
	if len(cs) == 0 {
		return 0
	}
	n := 0
	for nextCommon(cs) {
		n++
	}
	return n
}

// queryCursors normalizes a query and appends to cs a cursor on the
// posting list of each distinct term, shortest list first; it returns
// none if any term is missing (AND can never match) or if no terms
// survive normalization.
func (ix *Index) queryCursors(query string, cs []cursor) []cursor {
	for _, t := range QueryTerms(query) {
		pl, ok := ix.postings[t]
		if !ok {
			return nil
		}
		j := len(cs)
		cs = append(cs, cursor{})
		for ; j > 0 && cs[j-1].rest > pl.n; j-- {
			cs[j] = cs[j-1]
		}
		cs[j] = pl.cursor()
	}
	return cs
}

// nextCommon moves the cursors to the next document on every one of
// their lists and reports whether there was one; cs[0].doc is then that
// document. It leapfrogs: each cursor seeks the largest document seen
// so far, the shortest list leading, so no cursor reads a block that
// ends before the document it seeks.
func nextCommon(cs []cursor) bool {
	d := cs[0].doc + 1
	for {
		if !cs[0].seek(d) {
			return false
		}
		d = cs[0].doc
		agree := true
		for i := 1; i < len(cs) && agree; i++ {
			if !cs[i].seek(d) {
				return false
			}
			if cs[i].doc > d {
				d, agree = cs[i].doc, false
			}
		}
		if agree {
			return true
		}
	}
}

// Hit is one ranked search result.
type Hit struct {
	// DocID is the external identifier passed to AddTerms.
	DocID string
	// ordinal is the internal document number.
	ordinal int
	// Score is the tf·idf cosine similarity to the query in [0, 1].
	Score float64
}

// Search returns the k documents most similar to the query under
// tf·idf cosine similarity (lnc.ltc-style weighting: log tf, idf on the
// query side, cosine normalization both sides). Ties break by ordinal.
func (ix *Index) Search(query string, k int) []Hit {
	if k <= 0 {
		return nil
	}
	terms := Tokenize(query)
	if len(terms) == 0 {
		return nil
	}
	ix.ensureNorms()

	// The query's distinct terms in order of first appearance: every float
	// sum below adds in that order, so an answer is the same bits on every
	// build and every call.
	qtf := make(map[string]float64)
	var distinct []string
	for _, t := range terms {
		if qtf[t] == 0 {
			distinct = append(distinct, t)
		}
		qtf[t]++
	}
	n := float64(ix.Size())
	// Query vector weights and norm.
	type weighted struct {
		pl plist
		w  float64
	}
	var qw []weighted
	qnorm := 0.0
	for _, t := range distinct {
		pl := ix.postings[t]
		if pl.n == 0 {
			continue
		}
		w := (1 + math.Log(qtf[t])) * math.Log(1+n/float64(pl.n))
		qw = append(qw, weighted{pl, w})
		qnorm += w * w
	}
	if len(qw) == 0 {
		return nil
	}
	qnorm = math.Sqrt(qnorm)

	scores := make(map[int32]float64)
	for _, q := range qw {
		for c := q.pl.cursor(); c.next(); {
			scores[c.doc] += q.w * (1 + math.Log(float64(c.tf)))
		}
	}
	hits := make([]Hit, 0, min(k, len(scores)))
	for doc, s := range scores {
		denom := qnorm * ix.docNorm[doc]
		if denom == 0 {
			continue
		}
		hits = keepBest(hits, Hit{ordinal: int(doc), Score: s / denom}, k)
	}
	sort.Slice(hits, func(i, j int) bool { return below(hits[j], hits[i]) })
	for i := range hits {
		hits[i].DocID = ix.docIDs[hits[i].ordinal]
	}
	return hits
}

// below reports whether hit a ranks after hit b: a lower score, or the
// same score and a later ordinal.
func below(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ordinal > b.ordinal
}

// keepBest offers h to top, the k best hits offered so far held as a
// heap whose root ranks below the others, and returns the heap. A hit
// that ranks below a full heap's root costs one comparison.
func keepBest(top []Hit, h Hit, k int) []Hit {
	i := len(top)
	switch {
	case i < k:
		top = append(top, h)
		for ; i > 0 && below(h, top[(i-1)/2]); i = (i - 1) / 2 {
			top[i] = top[(i-1)/2]
		}
	case below(top[0], h):
		i = 0
		for c := 1; c < len(top); c = 2*i + 1 {
			if c+1 < len(top) && below(top[c+1], top[c]) {
				c++
			}
			if !below(top[c], h) {
				break
			}
			top[i] = top[c]
			i = c
		}
	default:
		return top
	}
	top[i] = h
	return top
}

// ensureNorms computes per-document tf vector norms on the first call
// after a build. Norms use the same log-tf damping as Search's
// accumulation so the cosine is consistent. Each document's squares are
// added in term order, so a norm is the same bits on every build.
func (ix *Index) ensureNorms() {
	ix.normOnce.Do(func() {
		terms := make([]string, 0, len(ix.postings))
		for t := range ix.postings {
			terms = append(terms, t)
		}
		sort.Strings(terms)
		norms := make([]float64, len(ix.docIDs))
		for _, t := range terms {
			for c := ix.postings[t].cursor(); c.next(); {
				w := 1 + math.Log(float64(c.tf))
				norms[c.doc] += w * w
			}
		}
		for i := range norms {
			norms[i] = math.Sqrt(norms[i])
		}
		ix.docNorm = norms
	})
}

// Validate checks internal invariants (each posting list well formed,
// its ordinals strictly increasing and within range, its term
// frequencies positive, each block's header true to its pairs); it is
// used by tests and returns the first violation.
func (ix *Index) Validate() error {
	for term, pl := range ix.postings {
		if err := pl.validate(int32(len(ix.docIDs))); err != nil {
			return fmt.Errorf("textindex: term %q: %w", term, err)
		}
	}
	return nil
}

// validate checks one list against the format plist describes, for an
// index of docs documents: it reads the list as every reader does, and
// holds each block's header to the pairs behind it.
func (pl plist) validate(docs int32) error {
	c, prev := pl.cursor(), int32(-1)
	for c.next() {
		switch {
		case c.doc <= prev:
			return fmt.Errorf("postings not strictly increasing at doc %d", c.doc)
		case c.doc >= docs:
			return fmt.Errorf("posting has out-of-range doc %d", c.doc)
		case c.tf <= 0:
			return fmt.Errorf("doc %d has non-positive tf %d", c.doc, c.tf)
		case c.left == 0 && c.blockLast != math.MaxInt32 && (c.doc != c.blockLast || c.at != c.end):
			return fmt.Errorf("block ends at doc %d, byte %d; its header says doc %d, byte %d", c.doc, c.at, c.blockLast, c.end)
		}
		prev = c.doc
	}
	if c.at != len(pl.data) || pl.n > 0 && c.doc != pl.last {
		return fmt.Errorf("%d postings end at doc %d, byte %d; the list holds %d bytes, last doc %d", pl.n, c.doc, c.at, len(pl.data), pl.last)
	}
	return nil
}
