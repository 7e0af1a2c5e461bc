package corpus

import (
	"fmt"
	"strings"

	"metaprobe/internal/stats"
)

// HealthWorld returns the vocabulary universe for the health-care
// testbed, mirroring the paper's Section 6.1 setup: a medicine/health
// domain vocabulary (the paper extracted one from MedLinePlus topic
// pages) organized into medical specialties plus broader science and
// news topics, with concept groups ("breast cancer", "heart attack",
// "blood pressure", ...) that drive term correlation.
func HealthWorld() *World {
	topics := []Topic{
		{
			Name: "oncology",
			Terms: strings.Fields(`cancer tumor breast lung prostate chemotherapy radiation biopsy
				melanoma leukemia lymphoma metastasis oncologist carcinoma mammogram screening
				malignant benign remission pathology cervical ovarian colon skin therapy marrow
				bone cell lesion staging relapse survivor diagnosis grade polyp`),
			Concepts: [][]string{
				{"breast", "cancer"}, {"lung", "cancer"}, {"skin", "cancer"},
				{"prostate", "cancer"}, {"colon", "cancer"}, {"cervical", "cancer"},
				{"bone", "marrow"}, {"radiation", "therapy"},
				{"breast", "cancer", "screening"}, {"tumor", "biopsy"},
			},
		},
		{
			Name: "cardiology",
			Terms: strings.Fields(`heart cardiac attack artery blood pressure cholesterol stroke
				hypertension bypass valve arrhythmia angina aorta vascular pacemaker coronary
				circulation pulse ventricle atrium clot aneurysm defibrillator infarction
				systolic diastolic murmur stent cardiology rhythm`),
			Concepts: [][]string{
				{"heart", "attack"}, {"blood", "pressure"}, {"heart", "disease"},
				{"cardiac", "arrest"}, {"coronary", "artery"}, {"heart", "failure"},
				{"high", "blood", "pressure"}, {"blood", "clot"},
			},
		},
		{
			Name: "neurology",
			Terms: strings.Fields(`brain nerve alzheimer parkinson seizure epilepsy migraine dementia
				spinal cord neuron cognitive memory tremor paralysis neurology headache
				concussion sclerosis multiple stimulation cortex synapse reflex coma
				neuropathy disorder lesion imaging`),
			Concepts: [][]string{
				{"alzheimer", "disease"}, {"spinal", "cord"}, {"multiple", "sclerosis"},
				{"parkinson", "disease"}, {"brain", "injury"}, {"memory", "loss"},
			},
		},
		{
			Name: "infectious",
			Terms: strings.Fields(`virus infection influenza vaccine bacteria antibiotic hepatitis
				malaria tuberculosis outbreak epidemic immunization fever pathogen quarantine
				antiviral strain transmission contagious pandemic measles smallpox anthrax
				resistance incubation mosquito parasite pneumonia sepsis`),
			Concepts: [][]string{
				{"west", "nile", "virus"}, {"bird", "flu"}, {"flu", "vaccine"},
				{"antibiotic", "resistance"}, {"viral", "infection"}, {"food", "poisoning"},
			},
		},
		{
			Name: "metabolic",
			Terms: strings.Fields(`diabetes insulin glucose thyroid hormone obesity metabolism sugar
				pancreas kidney liver dialysis gland cortisol adrenal pituitary deficiency
				syndrome gout anemia electrolyte enzyme lipid triglyceride`),
			Concepts: [][]string{
				{"blood", "sugar"}, {"insulin", "resistance"}, {"thyroid", "gland"},
				{"kidney", "failure"}, {"weight", "gain"},
			},
		},
		{
			Name: "pediatrics",
			Terms: strings.Fields(`child infant pediatric birth pregnancy asthma allergy autism growth
				newborn toddler vaccination developmental prenatal maternity breastfeeding
				colic fever croup measles chickenpox adolescent immunize checkup milestone`),
			Concepts: [][]string{
				{"birth", "defect"}, {"child", "asthma"}, {"food", "allergy"},
				{"prenatal", "care"}, {"infant", "mortality"},
			},
		},
		{
			Name: "mentalhealth",
			Terms: strings.Fields(`depression anxiety therapy psychiatric stress disorder bipolar
				schizophrenia counseling insomnia mood panic trauma phobia addiction
				psychology psychotherapy antidepressant suicide grief behavioral compulsive
				attention hyperactivity mindfulness`),
			Concepts: [][]string{
				{"panic", "attack"}, {"eating", "disorder"}, {"bipolar", "disorder"},
				{"post", "traumatic", "stress"}, {"sleep", "disorder"},
			},
		},
		{
			Name: "pharma",
			Terms: strings.Fields(`drug medication dose prescription trial clinical approval tablet
				effect generic pharmacy aspirin ibuprofen statin placebo dosage interaction
				overdose recall label pill capsule injection compound formulary inhibitor
				antihistamine sedative painkiller`),
			Concepts: [][]string{
				{"clinical", "trial"}, {"side", "effect"}, {"drug", "interaction"},
				{"pain", "relief"}, {"drug", "recall"},
			},
		},
		{
			Name: "nutrition",
			Terms: strings.Fields(`diet vitamin protein calorie weight exercise fitness mineral
				supplement fiber organic nutrient carbohydrate fat sodium potassium calcium
				iron antioxidant vegetarian hydration appetite portion cooking grain
				vegetable fruit cereal`),
			Concepts: [][]string{
				{"weight", "loss"}, {"vitamin", "deficiency"}, {"healthy", "diet"},
				{"dietary", "supplement"}, {"physical", "exercise"},
			},
		},
		{
			Name: "science",
			Terms: strings.Fields(`research study gene genome cell molecular protein laboratory
				experiment physics chemistry species climate evolution fossil quantum
				particle telescope satellite ecosystem dna rna sequence microscope theory
				hypothesis journal peer review discovery`),
			Concepts: [][]string{
				{"stem", "cell"}, {"gene", "therapy"}, {"climate", "change"},
				{"human", "genome"}, {"peer", "review"},
			},
		},
		{
			Name: "news",
			Terms: strings.Fields(`report government election market economy sports weather police
				court president budget senate congress policy reform tax campaign debate
				scandal headline coverage briefing poll legislation committee spokesman`),
			Concepts: [][]string{
				{"health", "care", "reform"}, {"election", "campaign"}, {"budget", "deficit"},
				{"press", "briefing"},
			},
		},
	}
	background := strings.Fields(`health medical doctor patient hospital treatment disease symptom
		care clinic information service program center national guide resource history
		condition risk test result prevention family public body pain chronic acute
		diagnosis recovery emergency physician nurse surgery procedure specialist wellness
		community education article page topic question answer support group journal daily
		review update summary overview factor level rate increase decrease common rare severe
		mild early late stage primary secondary general local response system function
		age gender population region world country state million number percent`)

	// Real collections have enormous tail vocabularies; without one,
	// the head terms would appear in nearly every document and AND
	// queries would trivially match everything. Extend each topic and
	// the background with a deterministic synthetic tail so document
	// frequencies stay realistic.
	tailRNG := stats.NewRNG(0x4EA17)
	pool := syntheticVocabulary(tailRNG, len(topics)*150+600)
	next := 0
	take := func(n int) []string {
		s := pool[next : next+n]
		next += n
		return s
	}
	for i := range topics {
		topics[i].Terms = append(topics[i].Terms, take(150)...)
	}
	background = append(background, take(600)...)
	return mustWorld(topics, background)
}

// HealthTestbed returns the 20-database roster mirroring the paper's
// Section 6.1 testbed: 13 health databases drawn from medical
// specialties, 4 broader-science databases, and 3 daily-news sites with
// health coverage (Figure 14 lists samples such as MedWeb, PubMed
// Central, NIH and Science). scale multiplies every collection size so
// tests can shrink the testbed; sizes are floored at 50 documents. A
// scale <= 0 is read as 1, the paper's full size (397 396 documents),
// so a caller taking scale from a user should refuse one <= 0 itself.
func HealthTestbed(scale float64) []DatabaseSpec {
	if scale <= 0 {
		scale = 1
	}
	n := func(docs int) int {
		v := int(float64(docs) * scale)
		if v < 50 {
			v = 50
		}
		return v
	}
	mk := func(name, category string, docs int, affinity float64, weights map[string]float64) DatabaseSpec {
		return DatabaseSpec{
			Name:            name,
			Category:        category,
			NumDocs:         n(docs),
			MeanDocLen:      25,
			TopicWeights:    weights,
			ConceptAffinity: affinity,
		}
	}
	return []DatabaseSpec{
		// 13 health/medicine databases with distinct specialties and
		// correlation strengths.
		mk("MedWeb", "health", 4445, 0.30, map[string]float64{"oncology": 1, "cardiology": 1, "neurology": 1, "infectious": 1, "metabolic": 1, "pediatrics": 1, "mentalhealth": 1, "pharma": 1, "nutrition": 1}),
		mk("PubMedCentral", "health", 160000, 0.42, map[string]float64{"oncology": 3, "cardiology": 2, "neurology": 2, "infectious": 2, "metabolic": 1, "pharma": 2, "science": 2}),
		mk("NIH", "health", 63799, 0.38, map[string]float64{"oncology": 2, "cardiology": 2, "infectious": 2, "metabolic": 2, "science": 1, "pediatrics": 1}),
		mk("OncoLink", "health", 12000, 0.55, map[string]float64{"oncology": 8, "pharma": 1, "science": 1}),
		mk("HeartCenter", "health", 8000, 0.52, map[string]float64{"cardiology": 8, "nutrition": 1, "pharma": 1}),
		mk("NeuroBase", "health", 5200, 0.48, map[string]float64{"neurology": 8, "mentalhealth": 2, "pharma": 1}),
		mk("KidsHealth", "health", 7000, 0.35, map[string]float64{"pediatrics": 8, "infectious": 2, "nutrition": 2}),
		mk("MentalHealthNet", "health", 3100, 0.33, map[string]float64{"mentalhealth": 8, "pharma": 1, "neurology": 1}),
		mk("DrugInfoBank", "health", 15500, 0.45, map[string]float64{"pharma": 8, "oncology": 1, "cardiology": 1, "metabolic": 1}),
		mk("NutritionFacts", "health", 2600, 0.22, map[string]float64{"nutrition": 8, "metabolic": 2, "cardiology": 1}),
		mk("VaccineWatch", "health", 1900, 0.40, map[string]float64{"infectious": 8, "pediatrics": 2}),
		mk("DiabetesCare", "health", 3400, 0.50, map[string]float64{"metabolic": 8, "nutrition": 2, "cardiology": 1}),
		mk("WomensHealthOrg", "health", 6100, 0.44, map[string]float64{"oncology": 3, "pediatrics": 3, "nutrition": 1, "mentalhealth": 1}),
		// 4 broader-science databases (e.g. Science, Nature).
		mk("Science", "science", 29652, 0.25, map[string]float64{"science": 8, "oncology": 1, "infectious": 1, "neurology": 1}),
		mk("NatureArchive", "science", 41000, 0.28, map[string]float64{"science": 8, "oncology": 1, "metabolic": 1}),
		mk("ScienceDaily", "science", 9800, 0.18, map[string]float64{"science": 6, "infectious": 1, "cardiology": 1, "nutrition": 1}),
		mk("ResearchIndex", "science", 18700, 0.20, map[string]float64{"science": 8, "pharma": 1, "neurology": 1}),
		// 3 daily-news sites with constant health coverage (CNN,
		// NYTimes in the paper).
		mk("CNNHealthNews", "news", 2100, 0.12, map[string]float64{"news": 6, "infectious": 1, "nutrition": 1, "cardiology": 1}),
		mk("TimesHealthDesk", "news", 2800, 0.15, map[string]float64{"news": 6, "oncology": 1, "mentalhealth": 1, "pharma": 1}),
		mk("WireHealthReport", "news", 300, 0.10, map[string]float64{"news": 6, "infectious": 1, "metabolic": 1}),
	}
}

// consonants and vowelRunes build pronounceable synthetic words for the
// newsgroup testbed.
var (
	synthOnsets = []string{"b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z", "br", "cr", "dr", "st", "tr", "pl", "gr", "sk"}
	synthVowels = []string{"a", "e", "i", "o", "u", "ai", "ea", "ou"}
	synthCodas  = []string{"", "", "", "n", "r", "s", "t", "l", "m", "x"}
)

// syntheticWord generates a pronounceable lowercase word of 2-4
// syllables; distinct draws are deduplicated by the caller.
func syntheticWord(rng *stats.RNG) string {
	syllables := 2 + rng.Intn(3)
	var b strings.Builder
	for i := 0; i < syllables; i++ {
		b.WriteString(synthOnsets[rng.Intn(len(synthOnsets))])
		b.WriteString(synthVowels[rng.Intn(len(synthVowels))])
	}
	b.WriteString(synthCodas[rng.Intn(len(synthCodas))])
	return b.String()
}

// syntheticVocabulary generates n distinct synthetic words.
func syntheticVocabulary(rng *stats.RNG, n int) []string {
	seen := make(map[string]struct{}, n)
	out := make([]string, 0, n)
	for len(out) < n {
		w := syntheticWord(rng)
		if _, dup := seen[w]; dup {
			continue
		}
		seen[w] = struct{}{}
		out = append(out, w)
	}
	return out
}

// newsgroupNames are the testbed labels for the Section 4.2 study; the
// first few match the newsgroups shown in the paper's Figure 7.
var newsgroupNames = []string{
	"rec.autos.sport.nascar",
	"rec.music.beatles",
	"rec.music.classical.recordings",
	"rec.music.artists.springsteen",
	"comp.os.linux.advocacy",
	"comp.lang.c.moderated",
	"sci.space.policy",
	"sci.med.cardiology",
	"sci.environment.climate",
	"talk.politics.misc",
	"alt.sports.baseball",
	"alt.tv.simpsons",
	"misc.invest.stocks",
	"rec.arts.books",
	"rec.games.chess",
	"soc.history.war",
	"comp.sys.mac.hardware",
	"sci.bio.evolution",
	"alt.food.cooking",
	"rec.travel.europe",
}

// NewsgroupWorld builds a synthetic-vocabulary world with one topic per
// newsgroup, standing in for the 20 largest UCLA news-server groups the
// paper downloaded in May 2003. Each topic gets its own Zipfian
// vocabulary and correlated concept pairs/triples; a shared background
// vocabulary links the groups the way ordinary English does.
func NewsgroupWorld(seed int64) *World {
	rng := stats.NewRNG(seed)
	vocabRNG := rng.Fork(1)
	topics := make([]Topic, len(newsgroupNames))
	for i, name := range newsgroupNames {
		terms := syntheticVocabulary(vocabRNG, 120)
		var concepts [][]string
		conceptRNG := rng.Fork(int64(100 + i))
		for c := 0; c < 12; c++ {
			size := 2
			if conceptRNG.Float64() < 0.3 {
				size = 3
			}
			idx := stats.SampleWithoutReplacement(conceptRNG, 40, size) // among popular terms
			group := make([]string, size)
			for j, t := range idx {
				group[j] = terms[t]
			}
			concepts = append(concepts, group)
		}
		topics[i] = Topic{Name: name, Terms: terms, Concepts: concepts}
	}
	background := syntheticVocabulary(vocabRNG, 400)
	return mustWorld(topics, background)
}

// NewsgroupTestbed returns one database per newsgroup. The paper's
// groups ranged from 28,910 down to 1,840 articles; sizes here follow
// the same decay, multiplied by scale (floored at 50).
func NewsgroupTestbed(world *World, scale float64) []DatabaseSpec {
	if scale <= 0 {
		scale = 1
	}
	specs := make([]DatabaseSpec, len(world.Topics))
	for i, t := range world.Topics {
		size := int(float64(28910) * scale / (1 + 0.7*float64(i)))
		if size < 50 {
			size = 50
		}
		weights := map[string]float64{t.Name: 8}
		// Each group leaks a little of two neighbouring topics, as real
		// newsgroups do (cross-posting).
		weights[world.Topics[(i+1)%len(world.Topics)].Name] = 1
		weights[world.Topics[(i+7)%len(world.Topics)].Name] = 0.5
		specs[i] = DatabaseSpec{
			Name:            t.Name,
			Category:        "newsgroup",
			NumDocs:         size,
			MeanDocLen:      30,
			TopicWeights:    weights,
			ConceptAffinity: 0.15 + 0.35*float64(i%5)/4, // 0.15 .. 0.50 across groups
		}
	}
	return specs
}

// String renders a spec compactly for logs and the Figure 14 table.
func (s DatabaseSpec) String() string {
	return fmt.Sprintf("%s(%s, %d docs)", s.Name, s.Category, s.NumDocs)
}
