package textindex

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// posting is one decoded (document ordinal, term frequency) pair.
type posting struct {
	doc, tf int32
}

// decode reads every posting of a list in order.
func decode(pl plist) []posting {
	var out []posting
	for c := pl.cursor(); c.next(); {
		out = append(out, posting{c.doc, c.tf})
	}
	return out
}

// refIndex is the naive reference the encoded index is held to: each
// term's postings as a sorted slice of pairs, the layout the index kept
// before its lists were encoded, and Search computed from it with the
// same float operations in the same order.
type refIndex struct {
	ids  []string
	post map[string][]posting
}

func (r *refIndex) add(id string, terms []string) {
	ord := int32(len(r.ids))
	r.ids = append(r.ids, id)
	tf := map[string]int32{}
	for _, t := range terms {
		tf[t]++
	}
	for t, n := range tf {
		r.post[t] = append(r.post[t], posting{ord, n})
	}
}

func (r *refIndex) matchCount(distinct []string) int {
	on := map[int32]int{}
	for _, t := range distinct {
		for _, p := range r.post[t] {
			on[p.doc]++
		}
	}
	n := 0
	for _, c := range on {
		if c == len(distinct) {
			n++
		}
	}
	return n
}

func (r *refIndex) search(terms []string, k int) []Hit {
	if k <= 0 || len(terms) == 0 {
		return nil
	}
	sorted := make([]string, 0, len(r.post))
	for t := range r.post {
		sorted = append(sorted, t)
	}
	sort.Strings(sorted)
	norms := make([]float64, len(r.ids))
	for _, t := range sorted {
		for _, p := range r.post[t] {
			w := 1 + math.Log(float64(p.tf))
			norms[p.doc] += w * w
		}
	}
	for i := range norms {
		norms[i] = math.Sqrt(norms[i])
	}
	qtf := map[string]float64{}
	var distinct []string
	for _, t := range terms {
		if qtf[t] == 0 {
			distinct = append(distinct, t)
		}
		qtf[t]++
	}
	n := float64(len(r.ids))
	qnorm := 0.0
	ws := map[string]float64{}
	for _, t := range distinct {
		if pl := r.post[t]; len(pl) > 0 {
			ws[t] = (1 + math.Log(qtf[t])) * math.Log(1+n/float64(len(pl)))
			qnorm += ws[t] * ws[t]
		}
	}
	if len(ws) == 0 {
		return nil
	}
	qnorm = math.Sqrt(qnorm)
	scores := map[int32]float64{}
	for _, t := range distinct {
		for _, p := range r.post[t] {
			scores[p.doc] += ws[t] * (1 + math.Log(float64(p.tf)))
		}
	}
	hits := []Hit{}
	for doc, s := range scores {
		hits = append(hits, Hit{DocID: r.ids[doc], ordinal: int(doc), Score: s / (qnorm * norms[doc])})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ordinal < hits[j].ordinal
	})
	return hits[:min(k, len(hits))]
}

func repeat(term string, n int) []string { return strings.Fields(strings.Repeat(term+" ", n)) }

// TestEncodedIndexMatchesReference holds the encoded posting lists to the
// naive reference at three points of one build: before Compact, after
// it, and after documents added to the compacted index. The collection
// has lists of exactly 63, 64, 65 and 128 postings (so one ends just
// before, on and just after a block boundary, and one at two blocks),
// term frequencies and ordinal gaps of 128 and over and of 16 384 and
// over (two- and three-byte uvarints), long lists of many blocks, and
// documents that share an ID. Every list must decode to the reference's,
// and MatchCount, Search (scores compared with ==), VocabularyFrequencies
// and Validate must agree with it.
func TestEncodedIndexMatchesReference(t *testing.T) {
	ix := NewIndex()
	ref := &refIndex{post: map[string][]posting{}}
	add := func(id string, terms []string) {
		ix.AddTerms(id, terms)
		ref.add(id, terms)
	}
	state := uint32(56)
	rand := func(n uint32) uint32 {
		state = state*1664525 + 1013904223
		return (state >> 8) % n
	}
	const docs = 16600
	for d := 0; d < docs; d++ {
		var terms []string
		for _, every := range []struct {
			term         string
			stride, upto int
		}{{"alpha", 13, 63}, {"beta", 11, 64}, {"gamma", 17, 65}, {"delta", 5, 128}} {
			if d%every.stride == 0 && d/every.stride < every.upto {
				terms = append(terms, every.term)
			}
		}
		if rand(10) < 3 {
			terms = append(terms, "sigma")
		}
		if rand(10) == 0 {
			terms = append(terms, "sigma", "theta")
		}
		switch d {
		case 0, 200, 16500: // ordinal gaps of 200 and 16 300
			terms = append(terms, "omega")
		case 7:
			terms = append(terms, repeat("kappa", 200)...)
		case 300:
			terms = append(terms, repeat("kappa", 20000)...)
		case 301:
			terms = append(terms, "kappa")
		}
		id := fmt.Sprintf("d%05d", d)
		if d%1000 == 999 {
			id = "dup"
		}
		add(id, append(terms, "filler"))
	}
	queries := []string{"alpha", "beta gamma", "alpha delta", "delta gamma beta", "sigma theta", "sigma",
		"kappa", "kappa sigma", "omega", "omega filler", "theta theta alpha", "sigma delta alpha",
		"filler filler", "nonexistent", "sigma nonexistent", "",
		"alpha beta gamma delta sigma theta omega kappa filler", "filler sigma delta theta alpha beta gamma omega sigma"}
	check := func(stage string) {
		t.Helper()
		if err := ix.Validate(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if len(ix.postings) != len(ref.post) {
			t.Fatalf("%s: %d lists, the reference %d", stage, len(ix.postings), len(ref.post))
		}
		vocab := ix.VocabularyFrequencies()
		for term, want := range ref.post {
			if got := decode(ix.postings[term]); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: term %q decodes to %d postings unlike the reference's %d", stage, term, len(got), len(want))
			}
			if vocab[term] != len(want) {
				t.Errorf("%s: VocabularyFrequencies()[%q] = %d, want %d", stage, term, vocab[term], len(want))
			}
		}
		for _, q := range queries {
			terms := Tokenize(q)
			distinct := slices.Clone(terms)
			slices.Sort(distinct)
			distinct = slices.Compact(distinct)
			if got, want := ix.MatchCount(q), ref.matchCount(distinct); got != want {
				t.Errorf("%s: MatchCount(%q) = %d, want %d", stage, q, got, want)
			}
			for _, k := range []int{1, 10, len(ref.ids)} {
				got, want := ix.Search(q, k), ref.search(terms, k)
				if len(got) != len(want) {
					t.Fatalf("%s: Search(%q, %d): %d hits, want %d", stage, q, k, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: Search(%q, %d) hit %d = %+v, want %+v", stage, q, k, i, got[i], want[i])
					}
				}
			}
		}
	}
	for term, want := range map[string]int{"alpha": 63, "beta": 64, "gamma": 65, "delta": 128} {
		if n := len(ref.post[term]); n != want {
			t.Fatalf("%s has %d postings, the collection means %d", term, n, want)
		}
	}
	check("built")
	ix.Compact()
	check("compacted")
	// Appended after Compact: alpha reaches a block, beta and gamma grow
	// past one, omega gains a small gap, kappa a three-byte tf, and one
	// more document takes an ID already used.
	add("late0", []string{"alpha", "beta", "gamma", "omega", "filler"})
	add("dup", append(repeat("kappa", 17000), "beta", "filler"))
	add("late2", strings.Fields("sigma theta delta filler alpha"))
	check("appended after Compact")
}

// TestSearchKeepsTheFullSortsBest holds Search to the reference's full
// sort over random collections drawn from five terms with term
// frequencies of 1 or 2, so that many documents tie on score: for every
// k, the hits must be the full sort's first k, ties by ordinal, scores
// compared with ==.
func TestSearchKeepsTheFullSortsBest(t *testing.T) {
	vocab := []string{"alpha", "beta", "gamma", "delta", "sigma"}
	queries := []string{"alpha", "alpha beta", "gamma delta sigma", "beta beta alpha", "sigma alpha delta gamma beta"}
	state := uint32(58)
	rand := func(n uint32) uint32 {
		state = state*1664525 + 1013904223
		return (state >> 8) % n
	}
	ties := 0
	for trial := 0; trial < 20; trial++ {
		ix := NewIndex()
		ref := &refIndex{post: map[string][]posting{}}
		docs := 1 + int(rand(120))
		for d := 0; d < docs; d++ {
			var terms []string
			for _, v := range vocab {
				for n := rand(4); n > 1; n-- {
					terms = append(terms, v)
				}
			}
			id := fmt.Sprintf("d%d", d)
			ix.AddTerms(id, terms)
			ref.add(id, terms)
		}
		for _, q := range queries {
			terms := Tokenize(q)
			all := ref.search(terms, docs)
			for i := 1; i < len(all); i++ {
				if all[i].Score == all[i-1].Score {
					ties++
				}
			}
			for _, k := range []int{1, 2, 3, 5, 10, docs, docs + 1} {
				got, want := ix.Search(q, k), ref.search(terms, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: Search(%q, %d) = %v, the full sort's %v", trial, q, k, got, want)
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no two hits tied: the collections do not test tie-breaking")
	}
}

// FuzzPostingList holds one list's encoding to the postings appended to
// it: any gaps and term frequencies decode back exactly, the list stays
// valid, and seeking any ordinal from any position finds the first
// posting at or after it.
func FuzzPostingList(f *testing.F) {
	f.Add([]byte{1, 1, 2, 1, 3, 200}, uint16(64))
	f.Add([]byte(strings.Repeat("\x01", 130)), uint16(3))
	f.Add([]byte(strings.Repeat("\x82\x01\x01\xff", 70)), uint16(7))
	f.Fuzz(func(t *testing.T, raw []byte, from uint16) {
		// Each byte pair is a gap and a tf; a byte's top bit scales it,
		// so gaps and tfs of 128 and 16 384 and over occur.
		scale := func(b byte) int32 {
			if b&0x80 != 0 {
				return int32(b&0x7f)*300 + 1
			}
			return int32(b) + 1
		}
		var want []posting
		var pl plist
		doc := int32(-1)
		for i := 0; i+1 < len(raw) && len(want) < 400; i += 2 {
			doc += scale(raw[i])
			p := posting{doc, scale(raw[i+1])}
			pl.add(p.doc, p.tf)
			want = append(want, p)
		}
		if got := decode(pl); !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %v, appended %v", got, want)
		}
		if err := pl.validate(doc + 1); err != nil {
			t.Fatal(err)
		}
		// Seek, in increasing order, each posting's ordinal and the ones
		// beside it, from the position the last seek left; then seek each
		// of them from a fresh cursor that first stepped to posting
		// from % (n+1).
		targets := []int32{0, doc + 1}
		for _, p := range want {
			targets = append(targets, max(p.doc-1, 0), p.doc, p.doc+1)
		}
		slices.Sort(targets)
		c := pl.cursor()
		for _, d := range targets {
			i, _ := slices.BinarySearchFunc(want, d, func(p posting, d int32) int { return cmp.Compare(p.doc, d) })
			if ok := c.seek(d); ok != (i < len(want)) || ok && (posting{c.doc, c.tf}) != want[i] {
				t.Fatalf("seek(%d) in turn: (%v, %d, %d), want posting %d of %v", d, ok, c.doc, c.tf, i, want)
			}
		}
		start := int(from) % (len(want) + 1)
		for _, d := range targets {
			c := pl.cursor()
			for range start {
				c.next()
			}
			i, _ := slices.BinarySearchFunc(want, d, func(p posting, d int32) int { return cmp.Compare(p.doc, d) })
			if start > 0 && want[start-1].doc >= d {
				i = start - 1
			}
			if ok := c.seek(d); ok != (i < len(want)) || ok && (posting{c.doc, c.tf}) != want[i] {
				t.Fatalf("seek(%d) from posting %d: (%v, %d), want posting %d", d, start, ok, c.doc, i)
			}
		}
	})
}

// TestValidateFindsBrokenLists: Validate reports a list whose bytes do
// not hold what its header, length or count say.
func TestValidateFindsBrokenLists(t *testing.T) {
	build := func() *Index {
		ix := NewIndex()
		for d := 0; d < 130; d++ {
			ix.AddTerms(fmt.Sprintf("d%d", d), []string{"alpha"})
		}
		return ix
	}
	for name, breakIt := range map[string]func(pl *plist){
		"header's last ordinal": func(pl *plist) { pl.data[0]++ },
		"header's byte length":  func(pl *plist) { pl.data[2]++ },
		"a zero gap":            func(pl *plist) { pl.data[3] = 0 },
		"a zero tf":             func(pl *plist) { pl.data[4] = 0 },
		"a truncated tail":      func(pl *plist) { pl.data = pl.data[:len(pl.data)-1] },
		"a trailing byte":       func(pl *plist) { pl.data = append(pl.data, 1) },
		"the count":             func(pl *plist) { pl.n-- },
		"the last ordinal":      func(pl *plist) { pl.last-- },
		"an ordinal past the end": func(pl *plist) {
			pl.data[len(pl.data)-2] += 5
			pl.last += 5
		},
	} {
		ix := build()
		if err := ix.Validate(); err != nil {
			t.Fatalf("before breaking %s: %v", name, err)
		}
		pl := ix.postings["alpha"]
		breakIt(&pl)
		ix.postings["alpha"] = pl
		if err := ix.Validate(); err == nil {
			t.Errorf("Validate accepts a list with a broken %s", name)
		}
	}
}
