// Command metaprobe is the CLI for the metaprobe metasearcher.
//
// Subcommands:
//
//	serve  — generate a synthetic health testbed and serve every
//	         database over HTTP (real Hidden-Web-style answer pages),
//	         for use as a target by `query` or by external tools.
//	query  — run database selection against remote metaprobe servers:
//	         sample their summaries, train an error model, then answer
//	         queries with baseline / RD-based / adaptive-probing tiers.
//	demo   — the all-in-one local demonstration (serve + query without
//	         the network hop).
//
// Examples:
//
//	metaprobe serve -addr :8080 -scale 0.02
//	metaprobe query -base http://localhost:8080 -t 0.9 "breast cancer"
//	metaprobe demo "heart attack"
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"strings"

	"metaprobe"
	"metaprobe/internal/corpus"
	"metaprobe/internal/hidden"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
)

// logger is the process-wide structured logger. Human-facing report
// tables still print with fmt; everything operational goes through
// slog so log lines carry machine-readable fields (notably the
// per-selection correlation ID, which is also the root span's "id"
// attribute).
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

// fatal logs err and exits non-zero.
func fatal(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "query":
		remoteQuery(os.Args[2:])
	case "demo":
		demo(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: metaprobe <serve|query|demo> [flags] [query terms...]")
	os.Exit(2)
}

// checkScale refuses a -scale that would build another testbed than the
// one asked for: corpus.HealthTestbed reads a scale <= 0 as the paper's
// full size and floors every database of a NaN one at 50 documents.
func checkScale(fs *flag.FlagSet, scale float64) {
	if !(scale > 0) || math.IsInf(scale, 1) {
		usageError(fs, fmt.Errorf("-scale must be a positive finite number, got %v", scale))
	}
}

// checkTrain refuses a -train below 1; a negative one panics in the
// query generator.
func checkTrain(fs *flag.FlagSet, n int) {
	if n < 1 {
		usageError(fs, fmt.Errorf("-train must be at least 1, got %d", n))
	}
}

// usageError reports a flag value out of range the way the flag package
// reports one it cannot parse: the message, the usage, exit status 2.
func usageError(fs *flag.FlagSet, err error) {
	fmt.Fprintln(fs.Output(), err)
	fs.Usage()
	os.Exit(2)
}

// serve generates the health testbed and exposes every database under
// /db/<name>/search on one listener.
func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	scale := fs.Float64("scale", 0.02, "testbed size multiplier")
	seed := fs.Int64("seed", 2004, "random seed")
	fs.Parse(args)
	checkScale(fs, *scale)

	logger.Info("generating the 20-database health testbed", "scale", *scale)
	world := corpus.HealthWorld()
	tb, err := hidden.BuildTestbed(world, corpus.HealthTestbed(*scale), *seed)
	if err != nil {
		fatal(err)
	}
	for _, db := range tb.Databases() {
		local := db.(*hidden.Local)
		logger.Info("database ready", "db", db.Name(), "docs", local.Size(), "path", "/db/"+db.Name()+"/search")
	}
	logger.Info("serving", "addr", *addr)
	fatal(http.ListenAndServe(*addr, hidden.ServeTestbed(tb)))
}

// remoteQuery drives selection against a running `metaprobe serve`.
func remoteQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	base := fs.String("base", "http://localhost:8080", "base URL of a metaprobe serve instance")
	k := fs.Int("k", 3, "databases to select")
	t := fs.Float64("t", 0.9, "certainty threshold")
	trainN := fs.Int("train", 200, "training queries per term count")
	sampleN := fs.Int("sample", 60, "sampling probes per database for summaries")
	html := fs.Bool("html", true, "scrape HTML answer pages (false: JSON)")
	probeTimeout := fs.Duration("probe-timeout", 0, "per-probe deadline (0 = none)")
	fs.Parse(args)
	checkTrain(fs, *trainN)
	if fs.NArg() == 0 {
		fatal(fmt.Errorf("query: need query terms"))
	}
	query := strings.Join(fs.Args(), " ")

	// The databases a metaprobe server exposes are the Figure 14
	// roster; connect a client to each.
	var dbs []metaprobe.Database
	for _, spec := range corpus.HealthTestbed(1) {
		dbs = append(dbs, metaprobe.NewHTTPDatabase(spec.Name,
			strings.TrimRight(*base, "/")+"/db/"+spec.Name, *html))
	}
	logger.Info("sampling summaries", "databases", len(dbs))
	sums, err := metaprobe.SampleSummaries(dbs,
		[]string{"cancer", "heart", "health", "drug", "child", "report", "diet"},
		*sampleN, 1)
	if err != nil {
		fatal(err)
	}
	ms, err := metaprobe.New(dbs, sums, &metaprobe.Config{ProbeTimeout: *probeTimeout})
	if err != nil {
		fatal(err)
	}

	logger.Info("training the error model", "queries", 2**trainN)
	gen, err := queries.NewGenerator(corpus.HealthWorld(), queries.Config{})
	if err != nil {
		fatal(err)
	}
	pool, err := gen.Pool(stats.NewRNG(1), *trainN, *trainN)
	if err != nil {
		fatal(err)
	}
	train := make([]string, len(pool))
	for i, q := range pool {
		train[i] = q.String()
	}
	if err := ms.Train(train); err != nil {
		fatal(err)
	}
	report(ms, query, *k, *t)
}

// demo is serve+query fused into one process.
func demo(args []string) {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	k := fs.Int("k", 3, "databases to select")
	t := fs.Float64("t", 0.9, "certainty threshold")
	scale := fs.Float64("scale", 0.02, "testbed size multiplier")
	trainN := fs.Int("train", 300, "training queries per term count")
	seed := fs.Int64("seed", 2004, "random seed")
	modelPath := fs.String("model", "", "model file: loaded when present, written after training otherwise")
	trainLog := fs.String("trainlog", "", "file with training queries (one per line) instead of generated ones")
	probeTimeout := fs.Duration("probe-timeout", 0, "per-probe deadline (0 = none)")
	fs.Parse(args)
	checkScale(fs, *scale)
	checkTrain(fs, *trainN)
	query := "breast cancer"
	if fs.NArg() > 0 {
		query = strings.Join(fs.Args(), " ")
	}

	logger.Info("building the health testbed", "scale", *scale)
	world := corpus.HealthWorld()
	tb, err := hidden.BuildTestbed(world, corpus.HealthTestbed(*scale), *seed)
	if err != nil {
		fatal(err)
	}
	dbs := make([]metaprobe.Database, tb.Len())
	for i := range dbs {
		dbs[i] = tb.DB(i)
	}

	cfg := &metaprobe.Config{ProbeTimeout: *probeTimeout}

	// A persisted model skips both summary building and training.
	if *modelPath != "" {
		if _, statErr := os.Stat(*modelPath); statErr == nil {
			logger.Info("loading model", "path", *modelPath)
			ms, err := metaprobe.NewFromModel(dbs, *modelPath, cfg)
			if err != nil {
				fatal(err)
			}
			report(ms, query, *k, *t)
			return
		}
	}

	sums, err := metaprobe.ExactSummaries(dbs)
	if err != nil {
		fatal(err)
	}
	ms, err := metaprobe.New(dbs, sums, cfg)
	if err != nil {
		fatal(err)
	}
	var train []string
	if *trainLog != "" {
		qs, err := queries.LoadLog(*trainLog)
		if err != nil {
			fatal(err)
		}
		for _, q := range qs {
			train = append(train, q.String())
		}
	} else {
		gen, err := queries.NewGenerator(world, queries.Config{})
		if err != nil {
			fatal(err)
		}
		pool, err := gen.Pool(stats.NewRNG(*seed).Fork(1), *trainN, *trainN)
		if err != nil {
			fatal(err)
		}
		for _, q := range pool {
			train = append(train, q.String())
		}
	}
	logger.Info("training", "queries", len(train))
	if err := ms.Train(train); err != nil {
		fatal(err)
	}
	if *modelPath != "" {
		if err := ms.SaveModel(*modelPath); err != nil {
			fatal(err)
		}
		logger.Info("saved model", "path", *modelPath)
	}
	report(ms, query, *k, *t)
}

// report prints the three tiers and the fused results for one query,
// noting degradation when backends had to be excluded.
func report(ms *metaprobe.Metasearcher, query string, k int, t float64) {
	fmt.Printf("\nquery: %q  (k=%d, certainty %.2f)\n\n", query, k, t)

	expl, err := ms.Explain(query, k)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-18s %10s %12s %10s %14s\n", "database", "estimate", "E[relevancy]", "P(top-k)", "query type")
	for _, e := range expl {
		if e.MembershipProb < 0.01 && e.Estimate == 0 {
			continue // keep the table readable
		}
		fmt.Printf("%-18s %10.1f %12.1f %10.3f %14s\n",
			e.Database, e.Estimate, e.ExpectedRelevancy, e.MembershipProb, e.QueryType)
	}
	fmt.Println()
	fmt.Printf("baseline:  %v\n", ms.SelectBaseline(query, k))
	set, e, err := ms.Select(query, k, metaprobe.Absolute)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("RD-based:  %v (certainty %.3f)\n", set, e)
	res, err := ms.SelectWithCertainty(query, k, metaprobe.Absolute, t, -1)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("APro:      %v (certainty %.3f, %d probes)\n", res.Databases, res.Certainty, res.Probes)
	if res.Degraded {
		fmt.Printf("           degraded: excluded %v\n", res.ExcludedDBs)
	}
	fmt.Println()

	items, _, err := ms.Metasearch(query, k, metaprobe.Partial, t, 10)
	if err != nil {
		fatal(err)
	}
	fmt.Println("fused results:")
	for i, it := range items {
		fmt.Printf("  %2d. [%s] %s (%.3f)\n", i+1, it.Database, it.Doc.ID, it.Score)
	}
}
