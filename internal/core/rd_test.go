package core

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewRDNormalizesAndSorts(t *testing.T) {
	rd, err := newRD([]float64{100, 50, 150, 50}, []float64{2, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.validate(); err != nil {
		t.Fatal(err)
	}
	if rd.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (duplicate merged)", rd.Len())
	}
	if rd.Value(0) != 50 || rd.Value(1) != 100 || rd.Value(2) != 150 {
		t.Errorf("values = %v", rd.values)
	}
	if math.Abs(rd.Prob(0)-0.4) > 1e-12 || math.Abs(rd.Prob(1)-0.4) > 1e-12 || math.Abs(rd.Prob(2)-0.2) > 1e-12 {
		t.Errorf("probs = %v %v %v", rd.Prob(0), rd.Prob(1), rd.Prob(2))
	}
}

func TestNewRDErrors(t *testing.T) {
	cases := []struct {
		v, p []float64
	}{
		{nil, nil},
		{[]float64{1}, []float64{1, 2}},
		{[]float64{1}, []float64{0}},
		{[]float64{1}, []float64{-1}},
		{[]float64{math.NaN()}, []float64{1}},
		{[]float64{math.Inf(1)}, []float64{1}},
		{[]float64{1}, []float64{math.NaN()}},
	}
	for i, c := range cases {
		if _, err := newRD(c.v, c.p); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestImpulse(t *testing.T) {
	rd := Impulse(42)
	if !rd.isImpulse() || rd.Mean() != 42 || rd.entropy() != 0 {
		t.Errorf("impulse properties wrong: %v", rd)
	}
	if got := rd.String(); got != "impulse(42)" {
		t.Errorf("String = %q", got)
	}
}

// TestOnePointRDIsExactImpulse: merged duplicates that leave one support
// value must give it probability exactly 1, not the round-off of their
// normalised sum. The scratch treats every impulse's factors as exactly 0
// or 1 (keyTerm leaves them out, the DP rows shift for them), so an
// impulse whose P(X > v) is 1 − 2⁻⁵³ would change bits.
func TestOnePointRDIsExactImpulse(t *testing.T) {
	rd := MustRD([]float64{5, 5, 5}, []float64{0.73, 0.93, 0.43})
	if !rd.isImpulse() || rd.Prob(0) != 1 {
		t.Fatalf("one-point RD %v has P(5) = %x, want exactly 1", rd, rd.Prob(0))
	}
	if rd.prGreater(4) != 1 || rd.prLess(6) != 1 || rd.prEq(5) != 1 {
		t.Fatalf("one-point RD: P(X > 4) = %x, P(X < 6) = %x, P(X = 5) = %x, want 1", rd.prGreater(4), rd.prLess(6), rd.prEq(5))
	}
}

func TestRDCDFOps(t *testing.T) {
	rd := MustRD([]float64{50, 100, 150}, []float64{0.4, 0.5, 0.1})
	cases := []struct {
		v                 float64
		greater, eq, less float64
	}{
		{0, 1, 0, 0},
		{50, 0.6, 0.4, 0},
		{75, 0.6, 0, 0.4},
		{100, 0.1, 0.5, 0.4},
		{150, 0, 0.1, 0.9},
		{200, 0, 0, 1},
	}
	for _, c := range cases {
		if got := rd.prGreater(c.v); math.Abs(got-c.greater) > 1e-12 {
			t.Errorf("prGreater(%v) = %v, want %v", c.v, got, c.greater)
		}
		if got := rd.prEq(c.v); math.Abs(got-c.eq) > 1e-12 {
			t.Errorf("prEq(%v) = %v, want %v", c.v, got, c.eq)
		}
		if got := rd.prLess(c.v); math.Abs(got-c.less) > 1e-12 {
			t.Errorf("prLess(%v) = %v, want %v", c.v, got, c.less)
		}
	}
}

func TestRDMeanVarianceEntropy(t *testing.T) {
	rd := MustRD([]float64{0, 10}, []float64{0.5, 0.5})
	if rd.Mean() != 5 {
		t.Errorf("Mean = %v", rd.Mean())
	}
	if math.Abs(rd.entropy()-math.Log(2)) > 1e-12 {
		t.Errorf("entropy = %v, want ln 2", rd.entropy())
	}
	if !strings.HasPrefix(rd.String(), "RD{") {
		t.Errorf("String = %q", rd.String())
	}
}

// Property: for any RD, PrLess + PrEq + PrGreater = 1 at every point,
// and the three are consistent with the support.
func TestRDPartitionProperty(t *testing.T) {
	f := func(rawV []int16, rawP []uint8) bool {
		n := len(rawV)
		if n == 0 || len(rawP) < n {
			return true
		}
		vals := make([]float64, n)
		probs := make([]float64, n)
		positive := false
		for i := 0; i < n; i++ {
			vals[i] = float64(rawV[i])
			probs[i] = float64(rawP[i])
			if rawP[i] > 0 {
				positive = true
			}
		}
		if !positive {
			return true
		}
		rd, err := newRD(vals, probs)
		if err != nil {
			return false
		}
		if rd.validate() != nil {
			return false
		}
		for _, v := range append(slices.Clone(rd.values), -1e9, 0.5, 1e9) {
			s := rd.prLess(v) + rd.prEq(v) + rd.prGreater(v)
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEDToRDPaperExample3 reproduces Example 3: ED with errors
// {−50%: 0.4, 0%: 0.5, +50%: 0.1} and r̂ = 100 yields the RD
// {50: 0.4, 100: 0.5, 150: 0.1}.
func TestEDToRDPaperExample3(t *testing.T) {
	ed, err := NewED([]float64{-0.75, -0.25, 0.25, 0.75}, false, true)
	if err != nil {
		t.Fatal(err)
	}
	// 4 observations at −50%, 5 at 0%, 1 at +50% (Example 2's counts
	// scaled down from 100 sample queries).
	for i := 0; i < 4; i++ {
		mustObserve(t, ed, 100, 50) // err = −0.5
	}
	for i := 0; i < 5; i++ {
		mustObserve(t, ed, 100, 100) // err = 0
	}
	mustObserve(t, ed, 100, 150) // err = +0.5

	rd, err := ed.rd(100)
	if err != nil {
		t.Fatal(err)
	}
	want := MustRD([]float64{50, 100, 150}, []float64{0.4, 0.5, 0.1})
	if rd.Len() != 3 {
		t.Fatalf("RD = %v", rd)
	}
	for i := 0; i < 3; i++ {
		if math.Abs(rd.Value(i)-want.Value(i)) > 1e-9 || math.Abs(rd.Prob(i)-want.Prob(i)) > 1e-9 {
			t.Errorf("RD[%d] = (%v, %v), want (%v, %v)", i, rd.Value(i), rd.Prob(i), want.Value(i), want.Prob(i))
		}
	}
}

func mustObserve(t *testing.T, ed *ED, rhat, actual float64) {
	t.Helper()
	if err := ed.Observe(rhat, actual); err != nil {
		t.Fatal(err)
	}
}

func TestEDZeroBandAbsolute(t *testing.T) {
	ed, err := NewED(defaultAbsoluteEdges(), true, true)
	if err != nil {
		t.Fatal(err)
	}
	// Exact summaries: r̂ = 0 always sees r = 0.
	for i := 0; i < 10; i++ {
		mustObserve(t, ed, 0, 0)
	}
	rd, err := ed.rd(0)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.isImpulse() || rd.Value(0) != 0 {
		t.Errorf("zero-band RD = %v, want impulse(0)", rd)
	}
	// Sampled summaries: a few surprises.
	mustObserve(t, ed, 0, 3)
	mustObserve(t, ed, 0, 30)
	rd, err = ed.rd(0)
	if err != nil {
		t.Fatal(err)
	}
	if rd.isImpulse() {
		t.Errorf("zero-band RD with surprises should not be an impulse: %v", rd)
	}
	if rd.Value(0) != 0 {
		t.Errorf("zero-band RD should retain mass at 0: %v", rd)
	}
}

func TestEDErrors(t *testing.T) {
	ed, err := NewED(DefaultErrorEdges(), false, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := ed.Observe(0, 5); err == nil {
		t.Error("relative ED must reject rhat=0")
	}
	if err := ed.Observe(10, -1); err == nil {
		t.Error("negative actual must be rejected")
	}
	if err := ed.Observe(math.NaN(), 5); err == nil {
		t.Error("NaN rhat must be rejected")
	}
	if _, err := ed.rd(100); err == nil {
		t.Error("empty ED cannot derive an RD")
	}
	if _, err := NewED([]float64{1}, false, true); err == nil {
		t.Error("bad edges must be rejected")
	}
}

func TestEDRDFloorsNegativeValues(t *testing.T) {
	// Midpoint of bin [−1, −0.9) is −0.95 → value r̂·0.05 ≥ 0; but a
	// constructed bin reaching below −1 must floor at 0.
	ed, err := NewED([]float64{-2, -1.5, 0, 1}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	ed.Hist.Add(-1.8)
	ed.Hist.Add(0.5)
	rd, err := ed.rd(100)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Value(0) != 0 {
		t.Errorf("negative relevancy not floored: %v", rd)
	}
}

func TestEDCompareChiSquare(t *testing.T) {
	mk := func(obs []float64) *ED {
		ed, err := NewED([]float64{-1, -0.5, 0, 0.5, 1}, false, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range obs {
			ed.Hist.Add(e)
		}
		return ed
	}
	ideal := mk([]float64{-0.7, -0.7, -0.2, -0.2, -0.2, 0.2, 0.2, 0.7, 0.7, 0.7})
	same := mk([]float64{-0.7, -0.7, -0.2, -0.2, -0.2, 0.2, 0.2, 0.7, 0.7, 0.7})
	res, err := same.Compare(ideal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0.99 {
		t.Errorf("identical EDs should accept: p = %v", res.PValue)
	}
	skewed := mk([]float64{0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7})
	res, err = skewed.Compare(ideal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 0.05 {
		t.Errorf("skewed ED should reject: p = %v", res.PValue)
	}
	other, err := NewED([]float64{0, 1}, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := same.Compare(other, 0); err == nil {
		t.Error("different binning must fail")
	}
}

func TestEDClone(t *testing.T) {
	ed, err := NewED(DefaultErrorEdges(), false, true)
	if err != nil {
		t.Fatal(err)
	}
	mustObserve(t, ed, 100, 120)
	cl := ed.Clone()
	mustObserve(t, cl, 100, 80)
	if ed.Observations() != 1 || cl.Observations() != 2 {
		t.Error("clone shares state")
	}
}

func TestClassifier(t *testing.T) {
	c := defaultClassifier()
	cases := []struct {
		terms int
		rhat  float64
		want  TypeKey
	}{
		{2, 0, TypeKey{2, BandZero}},
		{2, 50, TypeKey{2, BandLow}},
		{2, 99.99, TypeKey{2, BandLow}},
		{2, 100, TypeKey{2, BandHigh}},
		{3, 5000, TypeKey{3, BandHigh}},
		{7, 5, TypeKey{4, BandLow}}, // clamped
		{0, 5, TypeKey{1, BandLow}}, // clamped
		{2, -3, TypeKey{2, BandZero}},
	}
	for _, cse := range cases {
		if got := c.Classify(cse.terms, cse.rhat); got != cse.want {
			t.Errorf("Classify(%d, %v) = %v, want %v", cse.terms, cse.rhat, got, cse.want)
		}
	}
	if got := (TypeKey{2, BandHigh}).String(); got != "2-term/high" {
		t.Errorf("TypeKey.String = %q", got)
	}
	if len(c.allKeys()) != 12 {
		t.Errorf("allKeys = %d keys, want 12", len(c.allKeys()))
	}
}
