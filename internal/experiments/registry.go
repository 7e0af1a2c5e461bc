package experiments

// Entry is one step of the evaluation: a study and the tables it prints.
type Entry struct {
	// IDs are the ids of the tables Run returns, in its order; F7 and
	// F8 come from one study.
	IDs []string
	// Step names the step in progress lines.
	Step string
	// NeedsEnv reports that Run reads the shared environment built by
	// Setup; the other steps build their own from the Config.
	NeedsEnv bool
	// Run computes the step's tables; it reads env only if NeedsEnv.
	Run func(cfg Config, scfg SamplingConfig, env *Env) ([]*Table, error)
}

// figure16MaxProbes is the last probe count Figure 16 reports.
const figure16MaxProbes = 10

// Registry lists every table of the evaluation, each with the arguments
// it is printed with, in the order cmd/experiments runs them. results/
// holds one .txt and one .csv per id.
var Registry = []Entry{
	{IDs: []string{"F7", "F8"}, Step: "sampling-size study (F7/F8)",
		Run: func(_ Config, scfg SamplingConfig, _ *Env) ([]*Table, error) {
			perDB, avg, err := SamplingStudy(scfg)
			if err != nil {
				return nil, err
			}
			return []*Table{perDB, avg}, nil
		}},
	ownStep("A1b", "Ablation A1b (optimal policy, truncated testbed)", func(cfg Config) (*Table, error) {
		return ablationOptimalPolicy(cfg, 5, 0.85)
	}),
	ownStep("ESIM", "E-SIM (document-similarity relevancy)", similarityStudy),
	envStep("F14", "Figure 14", func(env *Env) (*Table, error) { return figure14(env), nil }),
	envStep("F9", "Figure 9", func(env *Env) (*Table, error) { return figure9(env, "OncoLink") }),
	envStep("F15", "Figure 15", func(env *Env) (*Table, error) { return figure15(env, []int{1, 3}) }),
	envStep("F16", "Figure 16", func(env *Env) (*Table, error) { return figure16(env, figure16MaxProbes) }),
	envStep("F17", "Figure 17", func(env *Env) (*Table, error) { return figure17(env, nil) }),
	envStep("A1", "Ablation A1", func(env *Env) (*Table, error) { return ablationPolicies(env, 0.8, 1) }),
	envStep("A2", "Ablation A2", func(env *Env) (*Table, error) {
		return ablationTypeThreshold(env, []float64{10, 50, 100, 500}, 1)
	}),
	envStep("A3", "Ablation A3", func(env *Env) (*Table, error) { return ablationEDBins(env, 1) }),
	envStep("A4", "Ablation A4", func(env *Env) (*Table, error) {
		return ablationTrainingSize(env, []int{100, 250, 500, 1000, 2000}, 1)
	}),
	envStep("EPRUNE", "E-PRUNE (summary term budgets)", func(env *Env) (*Table, error) {
		return prunedSummariesStudy(env, nil)
	}),
	ownStep("ESAMP", "E-SAMP (query-sampled summaries)", func(cfg Config) (*Table, error) {
		return sampledSummariesStudy(cfg, 80)
	}),
	envStep("EFUSE", "E-FUSE (result-fusion quality)", func(env *Env) (*Table, error) { return fusionStudy(env, 3, 10) }),
	envStep("ECAL", "E-CAL (certainty calibration)", func(env *Env) (*Table, error) { return calibrationStudy(env, 1, 5) }),
	ownStep("EDRIFT", "E-DRIFT (online refinement under drift)", func(cfg Config) (*Table, error) {
		return driftStudy(cfg, "CNNHealthNews", 8, 1000)
	}),
	envStep("EBASE", "E-BASE (selector comparison incl. CORI)", func(env *Env) (*Table, error) {
		return baselineComparison(env, []int{1, 3})
	}),
	envStep("EWORK", "E-WORK (engine work counts)", func(env *Env) (*Table, error) { return workStudy(env, []int{1, 3}, 0.9) }),
	envStep("A5", "Ablation A5", func(env *Env) (*Table, error) { return ablationProbeCosts(env, 0.8, 1) }),
}

// envStep is a one-table step over the shared environment.
func envStep(id, step string, f func(env *Env) (*Table, error)) Entry {
	return Entry{IDs: []string{id}, Step: step, NeedsEnv: true,
		Run: func(_ Config, _ SamplingConfig, env *Env) ([]*Table, error) { return one(f(env)) }}
}

// ownStep is a one-table step that builds its own environment from cfg.
func ownStep(id, step string, f func(cfg Config) (*Table, error)) Entry {
	return Entry{IDs: []string{id}, Step: step,
		Run: func(cfg Config, _ SamplingConfig, _ *Env) ([]*Table, error) { return one(f(cfg)) }}
}

// one wraps a single table's result.
func one(t *Table, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// similarityStudy (E-SIM) is Figure 15 on an environment trained under
// the document-similarity relevancy definition.
func similarityStudy(cfg Config) (*Table, error) {
	env, err := Setup(similarityVariant(cfg))
	if err != nil {
		return nil, err
	}
	t, err := figure15(env, []int{1, 3})
	if err != nil {
		return nil, err
	}
	t.ID = "ESIM"
	t.title = "E-SIM: Figure 15 under the document-similarity relevancy definition"
	return t, nil
}
