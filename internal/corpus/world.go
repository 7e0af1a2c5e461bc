// Package corpus generates the synthetic document collections that
// stand in for the paper's testbed (20 health-related Hidden-Web
// databases, Figure 14, and 20 newsgroup collections, Section 4.2).
//
// The generator is a topic model with *controlled term correlation*:
//
//   - a World defines topics, each with a Zipfian vocabulary and a set
//     of concepts — small groups of terms (e.g. "breast cancer") that
//     are emitted together;
//   - a DatabaseSpec gives each database its own topic mixture, size,
//     and concept affinity (how strongly that database's documents glue
//     concept terms together).
//
// The term-independence estimator (Eq. 1 of the paper) is exact when
// query terms occur independently within a database and wrong in
// proportion to their correlation. Because concept affinity and topic
// coverage differ per database, the estimator's error here is
// *non-uniform across databases* but *stable across queries of the same
// type* — exactly the structure the paper observed on real Hidden-Web
// databases and the property its error-distribution learning relies on.
package corpus

import (
	"fmt"

	"metaprobe/internal/stats"
)

// Topic is one subject area of the synthetic world.
type Topic struct {
	// Name identifies the topic (e.g. "oncology").
	Name string
	// Terms is the topical vocabulary, most popular first (term
	// popularity within the topic is Zipfian over this order).
	Terms []string
	// Concepts are groups of 2-3 terms that tend to occur together in
	// documents about this topic. Concept terms may also appear in
	// Terms; emission through a concept is what creates correlation.
	Concepts [][]string
}

// World is a shared vocabulary universe that all databases of a testbed
// draw from.
type World struct {
	// Topics are the subject areas.
	Topics []Topic
	// Background is the domain-independent vocabulary (Zipfian).
	Background []string

	topicSamplers   []*stats.WeightedSampler
	conceptSamplers []*stats.WeightedSampler
	backgroundSamp  *stats.WeightedSampler
}

// newWorld validates a topic set and precomputes the samplers.
func newWorld(topics []Topic, background []string) (*World, error) {
	if len(topics) == 0 {
		return nil, fmt.Errorf("corpus: world needs at least one topic")
	}
	if len(background) == 0 {
		return nil, fmt.Errorf("corpus: world needs background vocabulary")
	}
	w := &World{Topics: topics, Background: background}
	w.topicSamplers = make([]*stats.WeightedSampler, len(topics))
	w.conceptSamplers = make([]*stats.WeightedSampler, len(topics))
	for i, t := range topics {
		if len(t.Terms) == 0 {
			return nil, fmt.Errorf("corpus: topic %q has no terms", t.Name)
		}
		var err error
		// Exponent 0.85 keeps even head terms below full document
		// saturation, so AND-match counts stay informative. Terms that
		// belong to a concept are strongly down-weighted in the base
		// sampler: their occurrences should be dominated by concept
		// emission (in real text, "breast" mostly appears inside
		// "breast cancer"), which is what makes the pair correlated.
		inConcept := make(map[string]bool)
		for _, c := range t.Concepts {
			for _, term := range c {
				inConcept[term] = true
			}
		}
		weights := stats.ZipfWeights(len(t.Terms), 0.85)
		for j, term := range t.Terms {
			if inConcept[term] {
				weights[j] *= 0.2
			}
		}
		w.topicSamplers[i], err = stats.NewWeightedSampler(weights)
		if err != nil {
			return nil, fmt.Errorf("corpus: topic %q: %w", t.Name, err)
		}
		if len(t.Concepts) > 0 {
			for ci, c := range t.Concepts {
				if len(c) < 2 {
					return nil, fmt.Errorf("corpus: topic %q concept %d has fewer than 2 terms", t.Name, ci)
				}
			}
			w.conceptSamplers[i], err = stats.NewWeightedSampler(stats.ZipfWeights(len(t.Concepts), 0.8))
			if err != nil {
				return nil, fmt.Errorf("corpus: topic %q concepts: %w", t.Name, err)
			}
		}
	}
	var err error
	w.backgroundSamp, err = stats.NewWeightedSampler(stats.ZipfWeights(len(background), 1.1))
	if err != nil {
		return nil, fmt.Errorf("corpus: background: %w", err)
	}
	return w, nil
}

// mustWorld is newWorld that panics on error (for preset construction).
func mustWorld(topics []Topic, background []string) *World {
	w, err := newWorld(topics, background)
	if err != nil {
		panic(err)
	}
	return w
}

// topicIndex returns the index of the named topic, or -1.
func (w *World) topicIndex(name string) int {
	for i, t := range w.Topics {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// DatabaseSpec describes one synthetic database to generate.
type DatabaseSpec struct {
	// Name identifies the database (shows up in Figure 14's table).
	Name string
	// Category is a free-form label ("health", "science", "news").
	Category string
	// NumDocs is the collection size.
	NumDocs int
	// MeanDocLen is the Poisson mean of document term counts.
	MeanDocLen float64
	// TopicWeights gives the database's topic mixture by topic name;
	// missing topics have weight zero. At least one weight must be
	// positive.
	TopicWeights map[string]float64
	// ConceptAffinity scales how often topical slots emit whole
	// concepts instead of single terms, in [0, 1]. High affinity makes
	// concept terms strongly correlated (the independence estimator
	// underestimates); zero affinity makes terms nearly independent.
	ConceptAffinity float64
	// backgroundFraction is the probability that a slot emits a
	// background term (default 0.35 when zero).
	backgroundFraction float64
}

// Document is one generated document.
type Document struct {
	// ID is unique within the database.
	ID string
	// Terms are the document's words in generation order.
	Terms []string
}

// Generate produces the documents of one database. Generation is
// deterministic given the RNG state.
func (w *World) Generate(spec DatabaseSpec, rng *stats.RNG) ([]Document, error) {
	if spec.NumDocs <= 0 {
		return nil, fmt.Errorf("corpus: database %q has NumDocs %d", spec.Name, spec.NumDocs)
	}
	if spec.MeanDocLen <= 0 {
		return nil, fmt.Errorf("corpus: database %q has MeanDocLen %v", spec.Name, spec.MeanDocLen)
	}
	if spec.ConceptAffinity < 0 || spec.ConceptAffinity > 1 {
		return nil, fmt.Errorf("corpus: database %q has ConceptAffinity %v outside [0,1]", spec.Name, spec.ConceptAffinity)
	}
	weights := make([]float64, len(w.Topics))
	positive := false
	for name, wt := range spec.TopicWeights {
		i := w.topicIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("corpus: database %q references unknown topic %q", spec.Name, name)
		}
		if wt < 0 {
			return nil, fmt.Errorf("corpus: database %q topic %q has negative weight", spec.Name, name)
		}
		weights[i] = wt
		if wt > 0 {
			positive = true
		}
	}
	if !positive {
		return nil, fmt.Errorf("corpus: database %q has no positive topic weight", spec.Name)
	}
	mix, err := stats.NewWeightedSampler(weights)
	if err != nil {
		return nil, fmt.Errorf("corpus: database %q: %w", spec.Name, err)
	}
	bg := spec.backgroundFraction
	if bg == 0 {
		bg = 0.35
	}

	docs := make([]Document, spec.NumDocs)
	for d := range docs {
		topic := mix.Sample(rng)
		length := rng.Poisson(spec.MeanDocLen)
		if length < 3 {
			length = 3
		}
		terms := make([]string, 0, length+2)
		for len(terms) < length {
			if rng.Float64() < bg {
				terms = append(terms, w.Background[w.backgroundSamp.Sample(rng)])
				continue
			}
			t := &w.Topics[topic]
			// Concept emission is damped so concept terms stay
			// mid-frequency even at affinity 1; what matters is the
			// *relative* strength across databases.
			if w.conceptSamplers[topic] != nil && rng.Float64() < spec.ConceptAffinity*0.15 {
				// Emit a whole concept: this is the correlation knob.
				c := t.Concepts[w.conceptSamplers[topic].Sample(rng)]
				terms = append(terms, c...)
				continue
			}
			terms = append(terms, t.Terms[w.topicSamplers[topic].Sample(rng)])
		}
		docs[d] = Document{
			ID:    fmt.Sprintf("%s-%06d", spec.Name, d),
			Terms: terms,
		}
	}
	return docs, nil
}
