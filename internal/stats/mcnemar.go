package stats

import "fmt"

// McNemarResult reports a McNemar paired test between two binary
// classifiers (here: two database-selection methods scored per query).
type McNemarResult struct {
	// Discordant01 counts cases where method A failed and B succeeded.
	Discordant01 int
	// Discordant10 counts cases where method A succeeded and B failed.
	Discordant10 int
	// statistic is the continuity-corrected chi-square statistic
	// (|b−c|−1)²/(b+c).
	statistic float64
	// PValue is the two-sided p-value (chi-square with 1 df).
	PValue float64
}

// McNemar tests whether two methods evaluated on the same queries
// differ beyond chance. a and b are per-query success indicators
// (same length, same query order) — exactly what paired selection
// comparisons like Figure 15 produce. Only discordant pairs inform the
// test. With no discordant pairs the methods are identical (p = 1).
func McNemar(a, b []bool) (McNemarResult, error) {
	if len(a) != len(b) {
		return McNemarResult{}, fmt.Errorf("stats: McNemar needs paired samples, got %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return McNemarResult{}, fmt.Errorf("stats: McNemar needs at least one pair")
	}
	res := McNemarResult{}
	for i := range a {
		switch {
		case !a[i] && b[i]:
			res.Discordant01++
		case a[i] && !b[i]:
			res.Discordant10++
		}
	}
	n := res.Discordant01 + res.Discordant10
	if n == 0 {
		res.PValue = 1
		return res, nil
	}
	d := float64(res.Discordant01 - res.Discordant10)
	if d < 0 {
		d = -d
	}
	// Continuity correction (Edwards); clamp at zero for tiny |b−c|.
	d -= 1
	if d < 0 {
		d = 0
	}
	res.statistic = d * d / float64(n)
	res.PValue = chiSquareSurvival(res.statistic, 1)
	return res, nil
}
