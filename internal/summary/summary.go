// Package summary builds and stores the statistical summaries the
// metasearcher keeps for each database: (term, document-frequency)
// tables plus the collection size — the input to relevancy estimation
// (Figure 2 of the paper).
//
// Two construction paths are provided, matching the two ways summaries
// are obtained in practice:
//
//   - Exact: read the collection's own index (feasible when databases
//     export statistics, or in experiments where we own the testbed);
//   - Sampled: query-based sampling through the public search
//     interface only (Callan-style, the approach of the paper's
//     reference [8] for non-cooperative Hidden-Web sources): issue
//     keyword probes, download top documents, and accumulate term
//     statistics from the sample.
package summary

import (
	"context"
	"fmt"
	"sort"

	"metaprobe/internal/hidden"
	"metaprobe/internal/stats"
	"metaprobe/internal/textindex"
)

// Summary is the metasearcher's local statistics for one database. All
// terms are stored normalized (lowercased, stemmed) in the same term
// space the databases index, so a raw query word is tokenized before its lookup.
type Summary struct {
	// Database is the database's name.
	Database string `json:"database"`
	// Size is |db|: the (possibly estimated) collection size used as
	// the multiplier in Eq. 1.
	Size int `json:"size"`
	// DocCount is the denominator for document-frequency fractions:
	// the collection size for exact summaries, or the number of
	// distinct sampled documents for sampled summaries.
	DocCount int `json:"docCount"`
	// DF maps normalized term → number of documents (out of DocCount)
	// containing it.
	DF map[string]int `json:"df"`
	// TermCount is the total number of term occurrences in the
	// collection (scaled from the sample for sampled summaries); the
	// collection word count cw used by CORI-style selection. Zero when
	// unknown.
	TermCount int `json:"termCount,omitempty"`
	// Sampled records whether the summary came from query-based
	// sampling.
	Sampled bool `json:"sampled"`
}

// Fraction returns df/DocCount for a normalized term (already in index
// term space); 0 when the summary is empty.
func (s *Summary) Fraction(normTerm string) float64 {
	if s.DocCount == 0 {
		return 0
	}
	return float64(s.DF[normTerm]) / float64(s.DocCount)
}

// Validate checks internal consistency.
func (s *Summary) Validate() error {
	if s.Database == "" {
		return fmt.Errorf("summary: missing database name")
	}
	if s.Size < 0 || s.DocCount < 0 {
		return fmt.Errorf("summary %s: negative size (%d) or doc count (%d)", s.Database, s.Size, s.DocCount)
	}
	for term, df := range s.DF {
		if df < 0 || df > s.DocCount {
			return fmt.Errorf("summary %s: term %q has df %d outside [0, %d]", s.Database, term, df, s.DocCount)
		}
	}
	return nil
}

// fromIndex builds an exact summary from a database's own index.
func fromIndex(name string, ix *textindex.Index) *Summary {
	return &Summary{
		Database:  name,
		Size:      ix.Size(),
		DocCount:  ix.Size(),
		DF:        ix.VocabularyFrequencies(),
		TermCount: ix.TotalTerms(),
	}
}

// FromLocal builds an exact summary from a Local database.
func FromLocal(db *hidden.Local) *Summary {
	return fromIndex(db.Name(), db.Index())
}

// SampleConfig tunes query-based sampling.
type SampleConfig struct {
	// SeedTerms start the sampling (e.g. a handful of domain words),
	// and estimate |db| through hidden.EstimateSize when the database
	// does not export its size.
	SeedTerms []string
	// NumQueries is how many probe queries to issue (default 80).
	NumQueries int
}

// docsPerQuery is how many top documents Sample fetches per probe.
const docsPerQuery = 4

// Sample builds a summary through the database's public interface
// only: issue a probe query, fetch a few top documents, accumulate
// their vocabulary, and draw the next probe term from the vocabulary
// seen so far (query-based sampling). The database must implement
// hidden.Fetcher.
func Sample(db hidden.Database, cfg SampleConfig, rng *stats.RNG) (*Summary, error) {
	fetcher, ok := db.(hidden.Fetcher)
	if !ok {
		return nil, fmt.Errorf("summary: database %s does not support document fetching", db.Name())
	}
	if len(cfg.SeedTerms) == 0 {
		return nil, fmt.Errorf("summary: sampling %s needs seed terms", db.Name())
	}
	if cfg.NumQueries == 0 {
		cfg.NumQueries = 80
	}

	df := make(map[string]int)
	seenDocs := make(map[string]struct{})
	sampledTokens := 0
	var vocabulary []string // term pool to draw probe words from
	inVocab := make(map[string]struct{})

	addDoc := func(id, text string) {
		if _, dup := seenDocs[id]; dup {
			return
		}
		seenDocs[id] = struct{}{}
		inDoc := make(map[string]struct{})
		for _, term := range textindex.Tokenize(text) {
			sampledTokens++
			if _, dup := inDoc[term]; dup {
				continue
			}
			inDoc[term] = struct{}{}
			df[term]++
			if _, known := inVocab[term]; !known {
				inVocab[term] = struct{}{}
				vocabulary = append(vocabulary, term)
			}
		}
	}

	probes := 0
	failures := 0
	for probes < cfg.NumQueries {
		var word string
		if probes < len(cfg.SeedTerms) {
			word = cfg.SeedTerms[probes]
		} else if len(vocabulary) > 0 {
			word = vocabulary[rng.Intn(len(vocabulary))]
		} else {
			word = cfg.SeedTerms[rng.Intn(len(cfg.SeedTerms))]
		}
		probes++
		res, err := db.SearchContext(context.Background(), word, docsPerQuery)
		if err != nil {
			failures++
			if failures > cfg.NumQueries {
				return nil, fmt.Errorf("summary: sampling %s: too many failures: %w", db.Name(), err)
			}
			continue
		}
		for _, d := range res.Docs {
			text, err := fetcher.Fetch(context.Background(), d.ID)
			if err != nil {
				continue
			}
			addDoc(d.ID, text)
		}
	}
	if len(seenDocs) == 0 {
		return nil, fmt.Errorf("summary: sampling %s retrieved no documents; seed terms may not match", db.Name())
	}
	size, err := hidden.EstimateSize(db, cfg.SeedTerms)
	if err != nil {
		return nil, fmt.Errorf("summary: sampling %s: %w", db.Name(), err)
	}
	return &Summary{
		Database: db.Name(),
		Size:     size,
		DocCount: len(seenDocs),
		DF:       df,
		// Extrapolate the collection word count from the sample.
		TermCount: sampledTokens * size / len(seenDocs),
		Sampled:   true,
	}, nil
}

// Set is a collection of summaries, one per mediated database, in
// testbed order.
type Set struct {
	// Summaries are ordered like the testbed's databases.
	Summaries []*Summary
}

// BuildExact builds exact summaries for every Local database of a
// testbed; it fails on non-local databases (use Sample for those).
func BuildExact(tb *hidden.Testbed) (*Set, error) {
	set := &Set{Summaries: make([]*Summary, tb.Len())}
	for i, db := range tb.Databases() {
		local, ok := db.(*hidden.Local)
		if !ok {
			return nil, fmt.Errorf("summary: database %s is not local; sample it instead", db.Name())
		}
		set.Summaries[i] = FromLocal(local)
	}
	return set, nil
}

// Prune returns a copy of the summary keeping only the maxTerms most
// frequent terms (ties broken lexicographically). Real metasearchers
// cap summary size — a full vocabulary per mediated database does not
// scale to hundreds of thousands of sources — and pruning trades
// estimation coverage for storage (experiment E-PRUNE measures the
// selection-quality cost). maxTerms ≤ 0 or ≥ len(DF) returns a full
// copy.
func (s *Summary) Prune(maxTerms int) *Summary {
	out := &Summary{
		Database:  s.Database,
		Size:      s.Size,
		DocCount:  s.DocCount,
		TermCount: s.TermCount,
		Sampled:   s.Sampled,
	}
	if maxTerms <= 0 || maxTerms >= len(s.DF) {
		out.DF = make(map[string]int, len(s.DF))
		for t, df := range s.DF {
			out.DF[t] = df
		}
		return out
	}
	keep := s.topTerms(maxTerms)
	out.DF = make(map[string]int, len(keep))
	for _, t := range keep {
		out.DF[t] = s.DF[t]
	}
	return out
}

// topTerms returns the n most frequent terms of a summary (for
// diagnostics and seed-term selection), ties broken lexicographically.
func (s *Summary) topTerms(n int) []string {
	type tf struct {
		term string
		df   int
	}
	all := make([]tf, 0, len(s.DF))
	for t, d := range s.DF {
		all = append(all, tf{t, d})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].df != all[j].df {
			return all[i].df > all[j].df
		}
		return all[i].term < all[j].term
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].term
	}
	return out
}
