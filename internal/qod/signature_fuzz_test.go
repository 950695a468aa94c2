package qod

import "testing"

// refLabels splits a wire-form name into its labels. It reports false for
// anything but 1..63-octet labels ending in the root label at the last
// octet.
func refLabels(name []byte) ([]string, bool) {
	var labels []string
	for i := 0; i < len(name); {
		n := int(name[i])
		switch {
		case n == 0:
			return labels, i == len(name)-1
		case n > 63 || i+1+n > len(name):
			return nil, false
		}
		labels = append(labels, string(name[i+1:i+1+n]))
		i += 1 + n
	}
	return nil, false
}

// refFold lowercases ASCII letters only, as DNS compares names.
func refFold(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// refMatchesName is the slow reference for MatchesName: both names split
// into labels, and suffix's labels are the tail of qname's, compared
// case-insensitively. A malformed name matches nothing.
func refMatchesName(suffix, qname []byte) bool {
	sl, ok := refLabels(suffix)
	if !ok {
		return false
	}
	ql, ok := refLabels(qname)
	if !ok || len(sl) > len(ql) {
		return false
	}
	tail := ql[len(ql)-len(sl):]
	for i := range sl {
		if refFold(sl[i]) != refFold(tail[i]) {
			return false
		}
	}
	return true
}

// refMatches is the slow reference for Matches.
func refMatches(s Signature, qname []byte, qtype, flags uint16) bool {
	return (s.QType == 0 || s.QType == qtype) && flags&s.FlagMask == s.FlagBits && refMatchesName(s.Suffix, qname)
}

// refCovers is the slow reference for Covers: every query o matches, s
// matches too — any qtype o admits, every header bit s pins pinned by o to
// the same value, and o's suffix under s's.
func refCovers(s, o Signature) bool {
	if s.QType != 0 && s.QType != o.QType {
		return false
	}
	for bit := uint16(1); bit != 0; bit <<= 1 {
		if s.FlagMask&bit != 0 && (o.FlagMask&bit == 0 || o.FlagBits&bit != s.FlagBits&bit) {
			return false
		}
	}
	return refMatchesName(s.Suffix, o.Suffix)
}

// FuzzSignatureMatch holds MatchesName, Matches and Covers to the label-wise
// references on arbitrary bytes. Signatures are built as the quarantine's
// callers build them: a case-folded suffix, flag bits inside the mask.
func FuzzSignatureMatch(f *testing.F) {
	www := wireName("www", "ex", "test")
	f.Add(www, wireName("ex", "test"), uint16(1), uint16(1), uint16(0x0100), uint16(0x7900), uint16(0x0100), wireName("WWW", "EX", "test"), uint16(0), uint16(0), uint16(0))
	f.Add(wireName("xwww", "ex", "test"), www, uint16(1), uint16(0), uint16(0), uint16(0), uint16(0), []byte{0}, uint16(16), uint16(0x0100), uint16(0))
	f.Add([]byte{0}, []byte{0}, uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), []byte{}, uint16(0), uint16(0), uint16(0))
	f.Add([]byte{3, 'w', 'w'}, []byte{}, uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), []byte{64, 0}, uint16(0), uint16(0), uint16(0))
	f.Add([]byte{1, 'a', 0, 0}, []byte{0, 0}, uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), []byte{200, 0}, uint16(0), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, qname, suffix []byte, qtype, sigType, flags, mask, bits uint16,
		oSuffix []byte, oType, oMask, oBits uint16) {
		s := Signature{Suffix: FoldName(suffix), QType: sigType, FlagMask: mask, FlagBits: bits & mask}
		o := Signature{Suffix: FoldName(oSuffix), QType: oType, FlagMask: oMask, FlagBits: oBits & oMask}
		if got, want := s.MatchesName(qname), refMatchesName(s.Suffix, qname); got != want {
			t.Fatalf("MatchesName(%q) under %q = %v, reference %v", qname, s.Suffix, got, want)
		}
		if got, want := s.Matches(qname, qtype, flags), refMatches(s, qname, qtype, flags); got != want {
			t.Fatalf("Matches(%q, %d, %#x) under %+v = %v, reference %v", qname, qtype, flags, s, got, want)
		}
		if got, want := s.Covers(o), refCovers(s, o); got != want {
			t.Fatalf("%+v Covers %+v = %v, reference %v", s, o, got, want)
		}
	})
}
