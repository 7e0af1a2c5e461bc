// Package queries generates the keyword-query workloads for the
// metaprobe testbed. It stands in for the paper's real Web query trace
// (Section 6.1: one month of queries from inventory.overture.com,
// filtered to health-care terms via a MedLinePlus vocabulary).
//
// The paper's workload properties that matter for reproduction:
//
//   - queries have 2 or 3 terms ("Web queries contain 2.2 terms on
//     average"; the paper uses 1 000 2-term + 1 000 3-term queries for
//     both the training and the test set);
//   - query terms come from the target domain, so they hit correlated
//     concept pairs on topical databases and uncorrelated terms
//     elsewhere — giving the term-independence estimator its
//     database-dependent error;
//   - the training and test sets are disjoint but identically
//     distributed, so error distributions learned on Q_train transfer
//     to Q_test.
package queries

import (
	"fmt"
	"strings"

	"metaprobe/internal/corpus"
	"metaprobe/internal/stats"
)

// Query is one keyword query.
type Query struct {
	// Terms are the raw query words in order.
	Terms []string
}

// String renders the query the way a user would type it.
func (q Query) String() string { return strings.Join(q.Terms, " ") }

// NumTerms returns the number of query terms.
func (q Query) NumTerms() int { return len(q.Terms) }

// Config tunes the query generator.
type Config struct {
	// conceptFraction is the probability that a query is built around
	// one of a topic's concepts (a correlated term group such as
	// "breast cancer"), as real queries overwhelmingly are. Default 0.45.
	conceptFraction float64
	// backgroundFraction is the probability that one slot of a
	// non-concept query uses a background term. Default 0.25.
	backgroundFraction float64
	// maxAttempts bounds rejection sampling per requested query
	// (duplicates and degenerate draws are rejected). Default 200.
	maxAttempts int
}

func (c *Config) setDefaults() {
	if c.conceptFraction == 0 {
		c.conceptFraction = 0.45
	}
	if c.backgroundFraction == 0 {
		c.backgroundFraction = 0.25
	}
	if c.maxAttempts == 0 {
		c.maxAttempts = 200
	}
}

// Generator draws queries from a corpus world.
type Generator struct {
	world *corpus.World
	cfg   Config

	topicSamp *stats.WeightedSampler
	termSamp  []*stats.WeightedSampler
	concSamp  []*stats.WeightedSampler
	bgSamp    *stats.WeightedSampler
}

// NewGenerator builds a query generator over the world's vocabulary.
func NewGenerator(world *corpus.World, cfg Config) (*Generator, error) {
	cfg.setDefaults()
	g := &Generator{world: world, cfg: cfg}
	// Topics are queried roughly uniformly with a mild skew toward
	// earlier (larger) topics.
	topicWeights := make([]float64, len(world.Topics))
	for i := range topicWeights {
		topicWeights[i] = 1 / (1 + 0.05*float64(i))
	}
	var err error
	g.topicSamp, err = stats.NewWeightedSampler(topicWeights)
	if err != nil {
		return nil, fmt.Errorf("queries: %w", err)
	}
	g.termSamp = make([]*stats.WeightedSampler, len(world.Topics))
	g.concSamp = make([]*stats.WeightedSampler, len(world.Topics))
	for i, t := range world.Topics {
		// Query-term popularity follows the same Zipf shape as
		// documents (people ask about what gets written about).
		g.termSamp[i], err = stats.NewWeightedSampler(stats.ZipfWeights(len(t.Terms), 0.9))
		if err != nil {
			return nil, fmt.Errorf("queries: topic %q: %w", t.Name, err)
		}
		if len(t.Concepts) > 0 {
			g.concSamp[i], err = stats.NewWeightedSampler(stats.ZipfWeights(len(t.Concepts), 0.7))
			if err != nil {
				return nil, fmt.Errorf("queries: topic %q concepts: %w", t.Name, err)
			}
		}
	}
	g.bgSamp, err = stats.NewWeightedSampler(stats.ZipfWeights(len(world.Background), 1.0))
	if err != nil {
		return nil, fmt.Errorf("queries: background: %w", err)
	}
	return g, nil
}

// one draws a single query with the given term count (2 or more). It
// never returns a query with repeated terms.
func (g *Generator) one(rng *stats.RNG, numTerms int) (Query, error) {
	if numTerms < 1 {
		return Query{}, fmt.Errorf("queries: numTerms %d < 1", numTerms)
	}
	for attempt := 0; attempt < g.cfg.maxAttempts; attempt++ {
		q := g.draw(rng, numTerms)
		if len(q.Terms) == numTerms && distinct(q.Terms) {
			return q, nil
		}
	}
	return Query{}, fmt.Errorf("queries: failed to draw a %d-term query after %d attempts", numTerms, g.cfg.maxAttempts)
}

func (g *Generator) draw(rng *stats.RNG, numTerms int) Query {
	topic := g.topicSamp.Sample(rng)
	t := &g.world.Topics[topic]
	terms := make([]string, 0, numTerms)

	if g.concSamp[topic] != nil && rng.Float64() < g.cfg.conceptFraction {
		c := t.Concepts[g.concSamp[topic].Sample(rng)]
		for _, w := range c {
			if len(terms) < numTerms {
				terms = append(terms, w)
			}
		}
	}
	for len(terms) < numTerms {
		var w string
		if rng.Float64() < g.cfg.backgroundFraction {
			w = g.world.Background[g.bgSamp.Sample(rng)]
		} else {
			w = t.Terms[g.termSamp[topic].Sample(rng)]
		}
		terms = append(terms, w)
	}
	return Query{Terms: terms}
}

// distinct reports whether all terms differ.
func distinct(terms []string) bool {
	for i := range terms {
		for j := i + 1; j < len(terms); j++ {
			if terms[i] == terms[j] {
				return false
			}
		}
	}
	return true
}

// Pool draws the requested numbers of distinct 2-term and 3-term
// queries. Distinctness is by exact term sequence.
func (g *Generator) Pool(rng *stats.RNG, num2, num3 int) ([]Query, error) {
	seen := make(map[string]struct{}, num2+num3)
	out := make([]Query, 0, num2+num3)
	add := func(numTerms, count int) error {
		misses := 0
		for added := 0; added < count; {
			q, err := g.one(rng, numTerms)
			if err != nil {
				return err
			}
			key := q.String()
			if _, dup := seen[key]; dup {
				misses++
				if misses > 50*count+1000 {
					return fmt.Errorf("queries: vocabulary too small for %d distinct %d-term queries", count, numTerms)
				}
				continue
			}
			seen[key] = struct{}{}
			out = append(out, q)
			added++
		}
		return nil
	}
	if err := add(2, num2); err != nil {
		return nil, err
	}
	if err := add(3, num3); err != nil {
		return nil, err
	}
	return out, nil
}

// TrainTest draws two disjoint query sets with the same composition
// (numTrain2 2-term + numTrain3 3-term training queries, and likewise
// for test), mirroring the paper's Q_train / Q_test construction.
func (g *Generator) TrainTest(rng *stats.RNG, numTrain2, numTrain3, numTest2, numTest3 int) (train, test []Query, err error) {
	pool, err := g.Pool(rng, numTrain2+numTest2, numTrain3+numTest3)
	if err != nil {
		return nil, nil, err
	}
	two := pool[:numTrain2+numTest2]
	three := pool[numTrain2+numTest2:]
	// The pool is drawn i.i.d., so a simple shuffle-split keeps the two
	// sets identically distributed.
	rng.Shuffle(len(two), func(i, j int) { two[i], two[j] = two[j], two[i] })
	rng.Shuffle(len(three), func(i, j int) { three[i], three[j] = three[j], three[i] })
	train = append(train, two[:numTrain2]...)
	train = append(train, three[:numTrain3]...)
	test = append(test, two[numTrain2:]...)
	test = append(test, three[numTrain3:]...)
	return train, test, nil
}
