package textindex

// stemInPlace reduces an English word to its stem using the classic
// Porter algorithm (M. F. Porter, "An algorithm for suffix stripping",
// Program 14(3), 1980), rewriting the bytes of word and returning the
// stem. The input must already be lowercase; words of length ≤ 2 are
// returned unchanged, as in the original algorithm. No step leaves the
// word longer than it found it, so the stem is written over the word's
// bytes, and stemming allocates nothing.
func stemInPlace(word []byte) []byte {
	if len(word) <= 2 {
		return word
	}
	for i := 0; i < len(word); i++ {
		if word[i] < 'a' || word[i] > 'z' {
			// Numbers and mixed tokens are not English words;
			// leave them alone.
			return word
		}
	}
	s := stemmer{b: word}
	s.step1a()
	s.step1b()
	s.step1c()
	s.step2()
	s.step3()
	s.step4()
	s.step5a()
	s.step5b()
	return s.b
}

// stemmer holds the word being stemmed. All the step functions operate
// on b in place, by reslicing within the bytes the word had: a suffix
// rewritten is never longer than the suffix a step strips before it.
type stemmer struct {
	b []byte
}

// isConsonant reports whether b[i] is a consonant per Porter's
// definition: a letter other than a, e, i, o, u, and other than y when
// y is preceded by a consonant.
func (s *stemmer) isConsonant(i int) bool {
	switch s.b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !s.isConsonant(i - 1)
	default:
		return true
	}
}

// measure returns m, the number of VC sequences in b[:upTo], where the
// word is viewed as [C](VC)^m[V].
func (s *stemmer) measure(upTo int) int {
	m := 0
	i := 0
	// Skip the initial consonant run.
	for i < upTo && s.isConsonant(i) {
		i++
	}
	for i < upTo {
		// Vowel run.
		for i < upTo && !s.isConsonant(i) {
			i++
		}
		if i >= upTo {
			break
		}
		// Consonant run closes one VC.
		m++
		for i < upTo && s.isConsonant(i) {
			i++
		}
	}
	return m
}

// hasVowel reports whether b[:upTo] contains a vowel.
func (s *stemmer) hasVowel(upTo int) bool {
	for i := 0; i < upTo; i++ {
		if !s.isConsonant(i) {
			return true
		}
	}
	return false
}

// endsDoubleConsonant reports *d: the word ends with a double consonant.
func (s *stemmer) endsDoubleConsonant() bool {
	n := len(s.b)
	return n >= 2 && s.b[n-1] == s.b[n-2] && s.isConsonant(n-1)
}

// endsCVC reports *o for b[:upTo]: it ends consonant-vowel-consonant
// where the final consonant is not w, x or y.
func (s *stemmer) endsCVC(upTo int) bool {
	if upTo < 3 {
		return false
	}
	i := upTo - 1
	if !s.isConsonant(i) || s.isConsonant(i-1) || !s.isConsonant(i-2) {
		return false
	}
	switch s.b[i] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// hasSuffix reports whether the word ends with suf.
func (s *stemmer) hasSuffix(suf string) bool {
	n := len(s.b)
	if n < len(suf) {
		return false
	}
	return string(s.b[n-len(suf):]) == suf
}

// stemLen returns the length of the word without the given suffix.
func (s *stemmer) stemLen(suf string) int { return len(s.b) - len(suf) }

// replace rewrites the trailing suffix with repl (the caller must have
// checked hasSuffix).
func (s *stemmer) replace(suf, repl string) {
	n := len(s.b) - len(suf)
	s.b = s.b[:n+len(repl)]
	copy(s.b[n:], repl)
}

// replaceIfM replaces suf with repl when the measure of the remaining
// stem exceeds minM; it reports whether suf matched (regardless of
// whether the replacement fired), which implements Porter's "longest
// matching suffix wins" rule.
func (s *stemmer) replaceIfM(suf, repl string, minM int) bool {
	if !s.hasSuffix(suf) {
		return false
	}
	if s.measure(s.stemLen(suf)) > minM {
		s.replace(suf, repl)
	}
	return true
}

// step1a handles plurals: sses→ss, ies→i, ss→ss, s→"".
func (s *stemmer) step1a() {
	switch {
	case s.hasSuffix("sses"):
		s.replace("sses", "ss")
	case s.hasSuffix("ies"):
		s.replace("ies", "i")
	case s.hasSuffix("ss"):
		// keep
	case s.hasSuffix("s"):
		s.replace("s", "")
	}
}

// step1b handles -ed and -ing.
func (s *stemmer) step1b() {
	if s.hasSuffix("eed") {
		if s.measure(s.stemLen("eed")) > 0 {
			s.replace("eed", "ee")
		}
		return
	}
	stripped := false
	switch {
	case s.hasSuffix("ed") && s.hasVowel(s.stemLen("ed")):
		s.replace("ed", "")
		stripped = true
	case s.hasSuffix("ing") && s.hasVowel(s.stemLen("ing")):
		s.replace("ing", "")
		stripped = true
	}
	if !stripped {
		return
	}
	switch {
	case s.hasSuffix("at"):
		s.replace("at", "ate")
	case s.hasSuffix("bl"):
		s.replace("bl", "ble")
	case s.hasSuffix("iz"):
		s.replace("iz", "ize")
	case s.endsDoubleConsonant():
		last := s.b[len(s.b)-1]
		if last != 'l' && last != 's' && last != 'z' {
			s.b = s.b[:len(s.b)-1]
		}
	case s.measure(len(s.b)) == 1 && s.endsCVC(len(s.b)):
		s.b = s.b[:len(s.b)+1]
		s.b[len(s.b)-1] = 'e'
	}
}

// step1c turns a terminal y into i when the stem has a vowel.
func (s *stemmer) step1c() {
	if s.hasSuffix("y") && s.hasVowel(s.stemLen("y")) {
		s.b[len(s.b)-1] = 'i'
	}
}

// step2 maps double suffixes to single ones when m > 0.
func (s *stemmer) step2() {
	rules := []struct{ suf, repl string }{
		{"ational", "ate"}, {"tional", "tion"},
		{"enci", "ence"}, {"anci", "ance"},
		{"izer", "ize"},
		{"abli", "able"},
		{"alli", "al"}, {"entli", "ent"}, {"eli", "e"}, {"ousli", "ous"},
		{"ization", "ize"}, {"ation", "ate"}, {"ator", "ate"},
		{"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"}, {"ousness", "ous"},
		{"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
	}
	for _, r := range rules {
		if s.replaceIfM(r.suf, r.repl, 0) {
			return
		}
	}
}

// step3 strips -icate, -ative, etc. when m > 0.
func (s *stemmer) step3() {
	rules := []struct{ suf, repl string }{
		{"icate", "ic"}, {"ative", ""}, {"alize", "al"},
		{"iciti", "ic"}, {"ical", "ic"}, {"ful", ""}, {"ness", ""},
	}
	for _, r := range rules {
		if s.replaceIfM(r.suf, r.repl, 0) {
			return
		}
	}
}

// step4 strips the remaining standard suffixes when m > 1.
func (s *stemmer) step4() {
	suffixes := []string{
		"al", "ance", "ence", "er", "ic", "able", "ible", "ant",
		"ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
		"ous", "ive", "ize",
	}
	for _, suf := range suffixes {
		if !s.hasSuffix(suf) {
			continue
		}
		stem := s.stemLen(suf)
		if suf == "ion" {
			// -ion only strips after s or t.
			if stem == 0 || (s.b[stem-1] != 's' && s.b[stem-1] != 't') {
				return
			}
		}
		if s.measure(stem) > 1 {
			s.replace(suf, "")
		}
		return
	}
}

// step5a removes a terminal e when m > 1, or when m = 1 and the stem
// does not end cvc.
func (s *stemmer) step5a() {
	if !s.hasSuffix("e") {
		return
	}
	stem := s.stemLen("e")
	m := s.measure(stem)
	if m > 1 || (m == 1 && !s.endsCVC(stem)) {
		s.replace("e", "")
	}
}

// step5b reduces a terminal double l when m > 1.
func (s *stemmer) step5b() {
	if s.measure(len(s.b)) > 1 && s.endsDoubleConsonant() && s.b[len(s.b)-1] == 'l' {
		s.b = s.b[:len(s.b)-1]
	}
}
