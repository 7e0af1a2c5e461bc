// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 6 plus the Section 4.2 sampling-size study), and
// the design-choice ablations listed in DESIGN.md. Each experiment
// returns a Table whose rows mirror the rows/series the paper reports.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/corpus"
	"metaprobe/internal/estimate"
	"metaprobe/internal/eval"
	"metaprobe/internal/hidden"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
	"metaprobe/internal/summary"
)

// Config sizes the main health-testbed pipeline (Section 6.1). The
// paper's full setting is Scale 1 with 1 000 + 1 000 training and test
// queries; the defaults here are scaled down to finish in minutes on a
// small machine while preserving every qualitative shape.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Scale multiplies the Figure 14 collection sizes.
	Scale float64
	// Train2, Train3 are the 2-/3-term training-query counts.
	Train2, Train3 int
	// Test2, Test3 are the 2-/3-term test-query counts.
	Test2, Test3 int
	// Model is the training configuration.
	Model core.Config
	// MaxDatabases truncates the Figure 14 roster (0 = all 20); the
	// optimal-policy ablation needs a tiny testbed (its cost is
	// factorial).
	MaxDatabases int
	// Relevancy overrides the relevancy definition (nil: document
	// frequency, the paper's evaluation setting). Set it together with
	// a matching Model config — see SimilarityVariant.
	Relevancy estimate.Relevancy
}

// SimilarityVariant returns cfg switched to the document-similarity
// relevancy definition (Section 2.1's second definition): best-document
// cosine, GlOSS-style estimation, similarity-scaled error bins. The
// paper states its techniques apply to both definitions; this variant
// demonstrates it end to end (experiment E-SIM in DESIGN.md).
func SimilarityVariant(cfg Config) Config {
	cfg.Relevancy = estimate.NewDocSimilarity()
	cfg.Model = core.SimilarityConfig()
	return cfg
}

// DefaultConfig is the configuration used by cmd/experiments.
func DefaultConfig() Config {
	return Config{
		Seed:   2004, // ICDE 2004
		Scale:  0.05,
		Train2: 1000, Train3: 1000,
		Test2: 1000, Test3: 1000,
		Model: core.DefaultConfig(),
	}
}

// SmallConfig is a fast configuration for tests.
func SmallConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.01
	cfg.Train2, cfg.Train3 = 150, 150
	cfg.Test2, cfg.Test3 = 60, 60
	return cfg
}

// Env is a fully prepared experiment environment: testbed, summaries,
// trained model, query sets and golden standard.
type Env struct {
	// Cfg is the configuration the environment was built with.
	Cfg Config
	// World is the vocabulary universe.
	World *corpus.World
	// Specs are the database specifications (Figure 14).
	Specs []corpus.DatabaseSpec
	// Testbed are the live databases.
	Testbed *hidden.Testbed
	// Summaries are the exact content summaries.
	Summaries *summary.Set
	// Rel is the relevancy definition (document frequency, Eq. 1).
	Rel estimate.Relevancy
	// Version is the trained probabilistic relevancy model (its Model),
	// published as the daemon publishes its model: selections are filled
	// from its RD table and decided through its memo.
	Version *core.ModelVersion
	// Train and Test are the disjoint query sets.
	Train, Test []queries.Query
	// Golden is the test queries' ground truth.
	Golden []eval.Golden
}

// Setup builds the complete pipeline of Section 6.1: generate the 20
// health databases, build summaries, draw Q_train/Q_test, learn the
// error distributions, and compute the golden standard.
func Setup(cfg Config) (*Env, error) {
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("experiments: scale must be positive")
	}
	rel := cfg.Relevancy
	if rel == nil {
		rel = estimate.NewDocFrequency()
	}
	env := &Env{Cfg: cfg, World: corpus.HealthWorld(), Rel: rel}
	env.Specs = corpus.HealthTestbed(cfg.Scale)
	if cfg.MaxDatabases > 0 && cfg.MaxDatabases < len(env.Specs) {
		env.Specs = env.Specs[:cfg.MaxDatabases]
	}

	var err error
	env.Testbed, err = hidden.BuildTestbed(env.World, env.Specs, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: building testbed: %w", err)
	}
	env.Summaries, err = summary.BuildExact(env.Testbed)
	if err != nil {
		return nil, fmt.Errorf("experiments: building summaries: %w", err)
	}
	gen, err := queries.NewGenerator(env.World, queries.Config{})
	if err != nil {
		return nil, fmt.Errorf("experiments: query generator: %w", err)
	}
	env.Train, env.Test, err = gen.TrainTest(stats.NewRNG(cfg.Seed).Fork(1),
		cfg.Train2, cfg.Train3, cfg.Test2, cfg.Test3)
	if err != nil {
		return nil, fmt.Errorf("experiments: query sets: %w", err)
	}
	model, err := core.Train(env.Testbed, env.Summaries, env.Rel, env.Train, cfg.Model)
	if err != nil {
		return nil, fmt.Errorf("experiments: training: %w", err)
	}
	env.Version = serve(model)
	env.Golden, err = eval.BuildGolden(env.Testbed, env.Rel, env.Test)
	if err != nil {
		return nil, fmt.Errorf("experiments: golden standard: %w", err)
	}
	return env, nil
}

// Probe issues the live query to database i of the testbed (the
// ProbeFunc used by every APro run in the experiments).
func (e *Env) Probe(query string) core.ProbeFunc {
	return func(i int) (float64, error) {
		return e.Rel.Probe(e.Testbed.DB(i), query)
	}
}

// Selection builds a query's initial selection state the way the
// daemon does: filled from the environment's model version.
func (e *Env) Selection(q queries.Query, metric core.Metric, k int) *core.Selection {
	return e.Version.NewSelection(q.String(), q.NumTerms(), metric, k)
}

// serve publishes a trained model as a version of its own, so that every
// table, retrained models' included, is printed by the serving engine.
// The time is fixed: nothing printed reads it.
func serve(m *core.Model) *core.ModelVersion {
	return core.NewModelVersion(m, "train", time.Time{})
}

// scoreEstimates scores the term-independence baseline over summaries
// sums on the environment's golden standard: each query's k databases
// with the highest estimates.
func scoreEstimates(env *Env, sums *summary.Set, k int) (eval.MethodScore, error) {
	return eval.Score(env.Golden, k, func(q queries.Query) ([]int, int, error) {
		ests := make([]float64, len(sums.Summaries))
		for i, s := range sums.Summaries {
			ests[i] = env.Rel.Estimate(s, q.String())
		}
		return core.TopKByScore(ests, k), 0, nil
	})
}

// scoreRDSelection scores RD-based selection (no probing) over a model on
// the environment's golden standard: each query's best k-set under the
// absolute metric.
func scoreRDSelection(env *Env, model *core.Model, k int) (eval.MethodScore, error) {
	ver := serve(model)
	return eval.Score(env.Golden, k, func(q queries.Query) ([]int, int, error) {
		set, _ := ver.NewSelection(q.String(), q.NumTerms(), core.Absolute, k).Best()
		return set, 0, nil
	})
}

// Table is a printable experiment result mirroring one paper artifact.
type Table struct {
	// ID is the experiment identifier ("F15", "A1", ...).
	ID string
	// Title describes the artifact ("Figure 15: ...").
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows are the data cells, one slice per row.
	Rows [][]string
	// Notes carry provenance (configuration, shape expectations).
	Notes []string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quotes are not
// needed: cells never contain commas).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// f3 formats a float with three decimals (the paper's precision).
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
