package hidden

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"metaprobe/internal/corpus"
	"metaprobe/internal/stats"
	"metaprobe/internal/textindex"
)

// newSpecRNG derives a deterministic per-database stream from (seed,
// label). Each call builds its own parent so concurrent builders do not
// share RNG state.
func newSpecRNG(seed, label int64) *stats.RNG {
	return stats.NewRNG(seed).Fork(label)
}

// Local is an in-process Hidden-Web database backed by an inverted
// index. It is the workhorse of the experiment suite: semantics are
// identical to the HTTP path but with zero latency.
//
// Each document's text is held once, as word ids: the words of every
// stored text back to back in text, slot s's at text[offs[s]:offs[s+1]].
// Slot s is the index's document s; byID lists the slots by their
// documents' IDs, newest first. A text is its words joined by single
// spaces, so Fetch returns the stored bytes exactly; offsets are uint32,
// so a database stores fewer than 2³² words. The word table, like the
// index's term table, may be shared with the other databases of a
// testbed: a database copies it before adding a word of its own
// (textindex.Table), so a table it did not copy is never written.
type Local struct {
	name  string
	index *textindex.Index
	words textindex.Table
	text  []int32
	offs  []uint32
	byID  []uint32
}

// NewLocal wraps an already-built index as a database. Fetch is only
// available for documents registered with StoreText (BuildLocal does
// this automatically).
func NewLocal(name string, index *textindex.Index) *Local {
	return newLocal(name, index, textindex.NewTable())
}

func newLocal(name string, index *textindex.Index, words textindex.Table) *Local {
	return &Local{name: name, index: index, words: words, offs: []uint32{0}}
}

// StoreText registers text as the retrievable text of the index's first
// document without one: add a document to the index, then store its
// text. Storing an ID again, after adding it again, replaces its text.
func (l *Local) StoreText(text string) {
	words := strings.Split(text, " ")
	ids := make([]int32, len(words))
	for i, w := range words {
		id, ok := l.words.ID(w)
		if !ok {
			// A word split from a text would keep the whole text alive.
			id = l.words.Add(strings.Clone(w))
		}
		ids[i] = id
	}
	l.storeWords(ids)
}

// storeWords stores the text that the words numbered ids joined by
// single spaces make as the next slot's. An ID stored again gets a new
// slot; its old words stay behind, unreferenced.
func (l *Local) storeWords(ids []int32) {
	slot := len(l.offs) - 1
	at, _ := l.find(l.index.DocID(slot))
	l.text = append(l.text, ids...)
	l.byID = slices.Insert(l.byID, at, uint32(slot))
	l.offs = append(l.offs, uint32(len(l.text)))
}

// find returns where id's newest slot is, or would go, in byID.
func (l *Local) find(id string) (int, bool) {
	return slices.BinarySearchFunc(l.byID, id, func(s uint32, id string) int { return strings.Compare(l.index.DocID(int(s)), id) })
}

// Fetch implements Fetcher. An in-process fetch answers at once, so it
// does not look at the context.
func (l *Local) Fetch(_ context.Context, id string) (string, error) {
	at, ok := l.find(id)
	if !ok {
		return "", fmt.Errorf("hidden: %s: no document %q", l.name, id)
	}
	s := l.byID[at]
	ids := l.text[l.offs[s]:l.offs[s+1]]
	n := 0
	for _, wid := range ids {
		n += 1 + len(l.words.Term(wid))
	}
	var b strings.Builder
	b.Grow(n)
	for i, wid := range ids {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(l.words.Term(wid))
	}
	return b.String(), nil
}

// norm is a generated word as a database stores and indexes it: its id
// in the word table, and the ids of its normalized terms in the term
// table.
type norm struct {
	word  int32
	terms []int32
}

// normalize numbers a word in words and its terms, normalized by
// textindex.Tokenize, in terms.
func normalize(word string, words, terms *textindex.Table) norm {
	n := norm{word: words.Add(word)}
	for _, t := range textindex.Tokenize(word) {
		n.terms = append(n.terms, terms.Add(t))
	}
	return n
}

// BuildLocal indexes the given documents into a fresh database, each
// generated term normalized by textindex.Tokenize.
func BuildLocal(name string, docs []corpus.Document) *Local {
	return buildLocal(name, docs, nil, textindex.NewTable(), textindex.NewTable())
}

// buildLocal is BuildLocal over a word table and a term table that it
// shares, with vocab, the words normalized into them, to start from.
func buildLocal(name string, docs []corpus.Document, vocab map[string]norm, words, terms textindex.Table) *Local {
	l := newLocal(name, textindex.NewIndexOn(terms), words.Share())
	size := 0
	for _, d := range docs {
		size += len(d.Terms)
	}
	l.text = make([]int32, 0, size)
	l.offs = slices.Grow(l.offs, len(docs))
	l.byID = make([]uint32, 0, len(docs))
	l.addDocs(docs, vocab)
	l.index.Compact()
	return l
}

// AddDocuments indexes generated documents and stores their texts, as
// BuildLocal does.
func (l *Local) AddDocuments(docs []corpus.Document) { l.addDocs(docs, nil) }

// addDocs indexes docs and stores their texts. Generator terms are
// normalized exactly like free text so the index, summaries and queries
// all live in the same term space; Tokenize is a pure function of its
// input, so a word vocab holds is not normalized again, and any other
// is normalized once. A document's text is its terms joined by single
// spaces.
func (l *Local) addDocs(docs []corpus.Document, vocab map[string]norm) {
	var met map[string]norm // the words vocab does not hold
	// Reused per document: neither the index nor the store keeps them.
	var words, terms []int32
	for _, d := range docs {
		words, terms = words[:0], terms[:0]
		for _, w := range d.Terms {
			n, ok := vocab[w]
			if !ok {
				if n, ok = met[w]; !ok {
					n = normalize(w, &l.words, l.index.Terms())
					if met == nil {
						met = make(map[string]norm)
					}
					met[w] = n
				}
			}
			words = append(words, n.word)
			terms = append(terms, n.terms...)
		}
		l.index.AddTermIDs(d.ID, terms)
		l.storeWords(words)
	}
}

// Name implements Database.
func (l *Local) Name() string { return l.name }

// Size implements Sizer.
func (l *Local) Size() int { return l.index.Size() }

// Index exposes the underlying index (summaries are built from it).
func (l *Local) Index() *textindex.Index { return l.index }

// SearchContext implements Database: boolean-AND match count plus the
// topK cosine-ranked documents. An in-process search answers in
// microseconds, so ctx is checked once, before it starts.
func (l *Local) SearchContext(ctx context.Context, query string, topK int) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("hidden: %s: %w", l.name, err)
	}
	res := Result{MatchCount: l.index.MatchCount(query)}
	if topK > 0 {
		for _, h := range l.index.Search(query, topK) {
			res.Docs = append(res.Docs, DocSummary{ID: h.DocID, Score: h.Score})
		}
	}
	return res, nil
}

// Testbed is a named, ordered collection of databases — what the
// metasearcher mediates. Order is significant: database index is the
// deterministic tie-breaker throughout the selection math.
type Testbed struct {
	dbs []Database
}

// NewTestbed validates that database names are unique and returns the
// collection.
func NewTestbed(dbs []Database) (*Testbed, error) {
	seen := make(map[string]struct{}, len(dbs))
	for _, db := range dbs {
		if _, dup := seen[db.Name()]; dup {
			return nil, fmt.Errorf("hidden: duplicate database name %q", db.Name())
		}
		seen[db.Name()] = struct{}{}
	}
	return &Testbed{dbs: dbs}, nil
}

// Len returns the number of databases.
func (t *Testbed) Len() int { return len(t.dbs) }

// DB returns the i-th database.
func (t *Testbed) DB(i int) Database { return t.dbs[i] }

// Databases returns the databases in order (the slice is shared; do
// not mutate).
func (t *Testbed) Databases() []Database { return t.dbs }

// IndexOf returns the position of the named database, or -1.
func (t *Testbed) IndexOf(name string) int {
	for i, db := range t.dbs {
		if db.Name() == name {
			return i
		}
	}
	return -1
}

// BuildTestbed generates and indexes every database of a testbed spec
// in parallel (generation is the dominant setup cost of the experiment
// suite). Each database derives its own RNG stream from the seed, so
// the result is deterministic regardless of scheduling.
func BuildTestbed(world *corpus.World, specs []corpus.DatabaseSpec, seed int64) (*Testbed, error) {
	dbs := make([]Database, len(specs))
	errs := make([]error, len(specs))
	// Every word the world generates, normalized once and numbered once
	// in the word table and the term table that every database shares.
	vocab := make(map[string]norm)
	words, terms := textindex.NewTable(), textindex.NewTable()
	lists := [][]string{world.Background}
	for _, topic := range world.Topics {
		lists = append(append(lists, topic.Terms), topic.Concepts...)
	}
	for _, ws := range lists {
		for _, w := range ws {
			if _, ok := vocab[w]; !ok {
				vocab[w] = normalize(w, &words, &terms)
			}
		}
	}
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec corpus.DatabaseSpec) {
			defer wg.Done()
			rng := newSpecRNG(seed, int64(i))
			docs, err := world.Generate(spec, rng)
			if err != nil {
				errs[i] = err
				return
			}
			dbs[i] = buildLocal(spec.Name, docs, vocab, words, terms)
		}(i, spec)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return NewTestbed(dbs)
}
