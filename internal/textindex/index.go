package textindex

import (
	"fmt"
	"math"
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
// Add must not race with queries.
type Index struct {
	tokenizer *Tokenizer
	postings  map[string][]posting
	docIDs    []string
	docLen    []int // number of terms per document

	// docNorm holds the tf·idf vector norms of the current build. The
	// first Search after a change computes them, once, under normOnce
	// however many readers arrive together; Add and AddTerms re-arm it.
	docNorm  []float64
	normOnce sync.Once

	// counts is the term-frequency scratch of Add and AddTerms: one map
	// for every document, left empty between documents.
	counts map[string]int32
}

// posting records one (document, term frequency) pair. Documents are
// identified by their dense internal ordinal.
type posting struct {
	doc int32
	tf  int32
}

// NewIndex returns an empty index that normalizes text with tok
// (DefaultTokenizer when nil).
func NewIndex(tok *Tokenizer) *Index {
	if tok == nil {
		tok = DefaultTokenizer()
	}
	return &Index{
		tokenizer: tok,
		postings:  make(map[string][]posting),
		counts:    make(map[string]int32),
	}
}

// Add indexes one document under the given external ID and returns its
// internal ordinal. IDs need not be unique, but distinct IDs make
// search results easier to interpret.
func (ix *Index) Add(id, text string) int {
	ord := int32(len(ix.docIDs))
	ix.docIDs = append(ix.docIDs, id)
	n := 0
	ix.tokenizer.TokenizeTo(text, func(term string) {
		ix.counts[term]++
		n++
	})
	ix.docLen = append(ix.docLen, n)
	ix.post(ord)
	return int(ord)
}

// AddTerms indexes a document given as pre-normalized terms, bypassing
// the tokenizer. The synthetic corpus generator uses this path.
func (ix *Index) AddTerms(id string, terms []string) int {
	ord := int32(len(ix.docIDs))
	ix.docIDs = append(ix.docIDs, id)
	for _, t := range terms {
		ix.counts[t]++
	}
	ix.docLen = append(ix.docLen, len(terms))
	ix.post(ord)
	return int(ord)
}

// post appends document ord's counted terms to their posting lists and
// empties the scratch counts. Each list gains at most one posting, at
// its end, so the lists stay in ordinal order whatever order the map
// yields its terms in.
func (ix *Index) post(ord int32) {
	for term, tf := range ix.counts {
		ix.postings[term] = append(ix.postings[term], posting{doc: ord, tf: tf})
	}
	clear(ix.counts)
	ix.normOnce = sync.Once{}
}

// Size returns the number of indexed documents (|db| in Eq. 1).
func (ix *Index) Size() int { return len(ix.docIDs) }

// TotalTerms returns the total number of term occurrences indexed (the
// collection word count cw used by CORI-style selection).
func (ix *Index) TotalTerms() int {
	total := 0
	for _, n := range ix.docLen {
		total += n
	}
	return total
}

// VocabularyFrequencies returns (term, document frequency) for every
// distinct term — the raw material of a content summary (Figure 2 of
// the paper).
func (ix *Index) VocabularyFrequencies() map[string]int {
	out := make(map[string]int, len(ix.postings))
	for term, pl := range ix.postings {
		out[term] = len(pl)
	}
	return out
}

// MatchCount returns the number of documents containing all query
// terms (boolean AND over the normalized terms). A query that
// normalizes to no terms matches nothing; duplicate terms are
// deduplicated.
func (ix *Index) MatchCount(query string) int {
	lists := ix.queryPostings(query)
	if lists == nil {
		return 0
	}
	return len(intersect(lists))
}

// queryPostings normalizes a query and gathers the posting list of each
// distinct term, shortest first; it returns nil if any term is missing
// (AND can never match) or if no terms survive normalization.
func (ix *Index) queryPostings(query string) [][]posting {
	terms := ix.tokenizer.Tokenize(query)
	if len(terms) == 0 {
		return nil
	}
	seen := make(map[string]struct{}, len(terms))
	var lists [][]posting
	for _, t := range terms {
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		pl, ok := ix.postings[t]
		if !ok {
			return nil
		}
		lists = append(lists, pl)
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	return lists
}

// intersect computes the docs common to every posting list. Lists are
// sorted by doc ordinal (documents are appended in increasing order),
// so a galloping merge against the shortest list is efficient.
func intersect(lists [][]posting) []int32 {
	if len(lists) == 0 {
		return nil
	}
	// Seed with the shortest list's docs.
	cur := make([]int32, len(lists[0]))
	for i, p := range lists[0] {
		cur[i] = p.doc
	}
	for _, pl := range lists[1:] {
		if len(cur) == 0 {
			return nil
		}
		next := cur[:0]
		for _, d := range cur {
			// Binary search pl for d.
			i := sort.Search(len(pl), func(i int) bool { return pl[i].doc >= d })
			if i < len(pl) && pl[i].doc == d {
				next = append(next, d)
			}
		}
		cur = next
	}
	return cur
}

// Hit is one ranked search result.
type Hit struct {
	// DocID is the external identifier passed to Add.
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
	terms := ix.tokenizer.Tokenize(query)
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
		pl []posting
		w  float64
	}
	var qw []weighted
	qnorm := 0.0
	for _, t := range distinct {
		pl := ix.postings[t]
		if len(pl) == 0 {
			continue
		}
		w := (1 + math.Log(qtf[t])) * math.Log(1+n/float64(len(pl)))
		qw = append(qw, weighted{pl, w})
		qnorm += w * w
	}
	if len(qw) == 0 {
		return nil
	}
	qnorm = math.Sqrt(qnorm)

	scores := make(map[int32]float64)
	for _, q := range qw {
		for _, p := range q.pl {
			scores[p.doc] += q.w * (1 + math.Log(float64(p.tf)))
		}
	}
	hits := make([]Hit, 0, len(scores))
	for doc, s := range scores {
		denom := qnorm * ix.docNorm[doc]
		if denom == 0 {
			continue
		}
		hits = append(hits, Hit{
			DocID:   ix.docIDs[doc],
			ordinal: int(doc),
			Score:   s / denom,
		})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ordinal < hits[j].ordinal
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
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
			for _, p := range ix.postings[t] {
				w := 1 + math.Log(float64(p.tf))
				norms[p.doc] += w * w
			}
		}
		for i := range norms {
			norms[i] = math.Sqrt(norms[i])
		}
		ix.docNorm = norms
	})
}

// Validate checks internal invariants (sorted posting lists, ordinals
// within range); it is used by tests and returns the first violation.
func (ix *Index) Validate() error {
	n := int32(len(ix.docIDs))
	for term, pl := range ix.postings {
		for i, p := range pl {
			if p.doc < 0 || p.doc >= n {
				return fmt.Errorf("textindex: term %q posting %d has out-of-range doc %d", term, i, p.doc)
			}
			if p.tf <= 0 {
				return fmt.Errorf("textindex: term %q posting %d has non-positive tf %d", term, i, p.tf)
			}
			if i > 0 && pl[i-1].doc >= p.doc {
				return fmt.Errorf("textindex: term %q postings not strictly increasing at %d", term, i)
			}
		}
	}
	return nil
}
