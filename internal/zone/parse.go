package zone

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"akamaidns/internal/dnswire"
)

// ParseMaster parses a zone in a pragmatic subset of RFC 1035 master-file
// syntax: one record per line, "$ORIGIN" and "$TTL" directives, "@" for the
// origin, relative names, comments with ";", and quoted TXT strings.
// Parenthesized multi-line records are joined before parsing. A physical
// line longer than maxMasterLine is an error.
func ParseMaster(r io.Reader, origin dnswire.Name) (*Zone, error) {
	z := New(origin)
	sc := bufio.NewScanner(r)
	// The scanner starts at its small default buffer and grows on demand;
	// only the cap is raised, so a typical zone costs kilobytes, not a
	// megabyte, of scratch per parse.
	sc.Buffer(nil, maxMasterLine)
	curOrigin := origin
	defaultTTL := uint32(300)
	var lastName dnswire.Name
	lineNo := 0
	var pending string   // the physical lines of a parenthesized record so far
	pendingLead := false // first physical line of the record began with whitespace
	parens := 0
	for sc.Scan() {
		lineNo++
		line := stripComment(sc.Text())
		opens, closes := strings.Count(line, "("), strings.Count(line, ")")
		parens += opens - closes
		if parens < 0 {
			return nil, fmt.Errorf("line %d: unbalanced parentheses", lineNo)
		}
		if pending == "" {
			// Leading whitespace on the record's first line means "same
			// owner as the previous record" (RFC 1035 §5.1).
			pendingLead = len(line) > 0 && (line[0] == ' ' || line[0] == '\t')
		}
		// Only a record that uses parentheses pays for joining its lines
		// and blanking them out; nearly every line is a whole record as is.
		if pending != "" || opens+closes > 0 {
			pending += " " + line
			if parens > 0 {
				continue
			}
			line = strings.ReplaceAll(strings.ReplaceAll(pending, "(", " "), ")", " ")
			pending = ""
		}
		if err := parseLine(z, line, pendingLead, &curOrigin, &defaultTTL, &lastName); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if parens != 0 {
		return nil, fmt.Errorf("unclosed parentheses at end of file")
	}
	return z, nil
}

// maxMasterLine bounds one physical master-file line, newline included.
const maxMasterLine = 1 << 20

// MustParseMaster parses from a string and panics on error; for tests and
// built-in configuration.
func MustParseMaster(text string, origin dnswire.Name) *Zone {
	z, err := ParseMaster(strings.NewReader(text), origin)
	if err != nil {
		panic(err)
	}
	return z
}

func stripComment(s string) string {
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inQuote = !inQuote
		case ';':
			if !inQuote {
				return s[:i]
			}
		}
	}
	return s
}

func parseLine(z *Zone, line string, ownerFromPrev bool, curOrigin *dnswire.Name, defaultTTL *uint32, lastName *dnswire.Name) error {
	fields, err := tokenize(line)
	if err != nil {
		return err
	}
	if len(fields) == 0 {
		return nil
	}
	switch strings.ToUpper(fields[0]) {
	case "$ORIGIN":
		if len(fields) != 2 {
			return fmt.Errorf("$ORIGIN wants 1 argument")
		}
		n, err := dnswire.ParseName(fields[1])
		if err != nil {
			return err
		}
		*curOrigin = n
		return nil
	case "$TTL":
		if len(fields) != 2 {
			return fmt.Errorf("$TTL wants 1 argument")
		}
		ttl, err := parseTTL(fields[1])
		if err != nil {
			return err
		}
		*defaultTTL = ttl
		return nil
	case "$INCLUDE":
		return fmt.Errorf("$INCLUDE is not supported")
	}

	// Owner name.
	var owner dnswire.Name
	rest := fields
	if ownerFromPrev {
		if lastName.IsZero() {
			return fmt.Errorf("continuation line with no previous owner")
		}
		owner = *lastName
	} else {
		owner, err = resolveName(fields[0], *curOrigin)
		if err != nil {
			return fmt.Errorf("owner %q: %w", fields[0], err)
		}
		rest = fields[1:]
		if owner == *lastName {
			// Runs of records under one owner share one name string.
			owner = *lastName
		}
	}
	*lastName = owner

	// Optional TTL and class in either order.
	ttl := *defaultTTL
	class := dnswire.ClassINET
	for len(rest) > 0 {
		up := strings.ToUpper(rest[0])
		if up == "IN" {
			rest = rest[1:]
			continue
		}
		if up == "CH" || up == "HS" {
			return fmt.Errorf("class %s not supported", up)
		}
		// A TTL starts with a digit. Asking parseTTL about anything else
		// (here: the type mnemonic that ends the loop, once per record)
		// would only buy an error value to throw away.
		if c := rest[0][0]; c < '0' || c > '9' {
			break
		}
		t, err := parseTTL(rest[0])
		if err != nil {
			break
		}
		ttl = t
		rest = rest[1:]
	}
	if len(rest) == 0 {
		return fmt.Errorf("missing record type")
	}
	typ, ok := dnswire.TypeFromString(rest[0])
	if !ok {
		return fmt.Errorf("unknown record type %q", rest[0])
	}
	rdata := rest[1:]
	h := dnswire.RRHeader{Name: owner, Type: typ, Class: class, TTL: ttl}
	rr, err := buildRR(h, rdata, *curOrigin)
	if err != nil {
		return fmt.Errorf("%s %s: %w", owner, typ, err)
	}
	return z.add(rr)
}

// tokenize splits on whitespace but keeps quoted strings intact (quotes
// removed, content preserved verbatim).
func tokenize(s string) ([]string, error) {
	out := make([]string, 0, 8) // a record line: owner, class, type, a few RDATA fields
	i := 0
	for i < len(s) {
		c := s[i]
		if c == ' ' || c == '\t' {
			i++
			continue
		}
		if c == '"' {
			j := i + 1
			for j < len(s) && s[j] != '"' {
				j++
			}
			if j >= len(s) {
				return nil, fmt.Errorf("unterminated quote")
			}
			out = append(out, "\x00"+s[i+1:j]) // NUL prefix marks "was quoted"
			i = j + 1
			continue
		}
		j := i
		for j < len(s) && s[j] != ' ' && s[j] != '\t' {
			j++
		}
		out = append(out, s[i:j])
		i = j
	}
	return out, nil
}

func unquote(tok string) (string, bool) {
	if strings.HasPrefix(tok, "\x00") {
		return tok[1:], true
	}
	return tok, false
}

func resolveName(tok string, origin dnswire.Name) (dnswire.Name, error) {
	tok, _ = unquote(tok)
	if tok == "@" {
		return origin, nil
	}
	if strings.HasSuffix(tok, ".") {
		return dnswire.ParseName(tok)
	}
	// Relative: append origin.
	if origin.IsRoot() {
		return dnswire.ParseName(tok + ".")
	}
	return dnswire.ParseName(tok + "." + origin.String())
}

// parseTTL accepts plain seconds or BIND-style unit suffixes (30s 20m 4h 1d 1w).
func parseTTL(tok string) (uint32, error) {
	if tok == "" {
		return 0, fmt.Errorf("empty TTL")
	}
	mult := uint64(1)
	last := tok[len(tok)-1]
	digits := tok
	switch last {
	case 's', 'S':
		digits = tok[:len(tok)-1]
	case 'm', 'M':
		mult, digits = 60, tok[:len(tok)-1]
	case 'h', 'H':
		mult, digits = 3600, tok[:len(tok)-1]
	case 'd', 'D':
		mult, digits = 86400, tok[:len(tok)-1]
	case 'w', 'W':
		mult, digits = 604800, tok[:len(tok)-1]
	}
	v, err := strconv.ParseUint(digits, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad TTL %q", tok)
	}
	v *= mult
	if v > 1<<31-1 {
		return 0, fmt.Errorf("TTL %d out of range", v)
	}
	return uint32(v), nil
}

func buildRR(h dnswire.RRHeader, rdata []string, origin dnswire.Name) (dnswire.RR, error) {
	need := func(n int) error {
		if len(rdata) != n {
			return fmt.Errorf("want %d RDATA fields, have %d", n, len(rdata))
		}
		return nil
	}
	switch h.Type {
	case dnswire.TypeA:
		if err := need(1); err != nil {
			return nil, err
		}
		addr, err := netip.ParseAddr(rdata[0])
		if err != nil || !addr.Is4() {
			return nil, fmt.Errorf("bad IPv4 address %q", rdata[0])
		}
		return &dnswire.A{RRHeader: h, Addr: addr}, nil
	case dnswire.TypeAAAA:
		if err := need(1); err != nil {
			return nil, err
		}
		addr, err := netip.ParseAddr(rdata[0])
		if err != nil || !addr.Is6() || addr.Is4In6() {
			return nil, fmt.Errorf("bad IPv6 address %q", rdata[0])
		}
		return &dnswire.AAAA{RRHeader: h, Addr: addr}, nil
	case dnswire.TypeNS:
		if err := need(1); err != nil {
			return nil, err
		}
		n, err := resolveName(rdata[0], origin)
		if err != nil {
			return nil, err
		}
		return &dnswire.NS{RRHeader: h, Target: n}, nil
	case dnswire.TypeCNAME:
		if err := need(1); err != nil {
			return nil, err
		}
		n, err := resolveName(rdata[0], origin)
		if err != nil {
			return nil, err
		}
		return &dnswire.CNAME{RRHeader: h, Target: n}, nil
	case dnswire.TypePTR:
		if err := need(1); err != nil {
			return nil, err
		}
		n, err := resolveName(rdata[0], origin)
		if err != nil {
			return nil, err
		}
		return &dnswire.PTR{RRHeader: h, Target: n}, nil
	case dnswire.TypeSOA:
		if err := need(7); err != nil {
			return nil, err
		}
		mname, err := resolveName(rdata[0], origin)
		if err != nil {
			return nil, err
		}
		rname, err := resolveName(rdata[1], origin)
		if err != nil {
			return nil, err
		}
		var nums [5]uint32
		for i := 0; i < 5; i++ {
			t, err := parseTTL(rdata[2+i])
			if err != nil {
				return nil, err
			}
			nums[i] = t
		}
		return &dnswire.SOA{RRHeader: h, MName: mname, RName: rname,
			Serial: nums[0], Refresh: nums[1], Retry: nums[2], Expire: nums[3], Minimum: nums[4]}, nil
	case dnswire.TypeMX:
		if err := need(2); err != nil {
			return nil, err
		}
		pref, err := strconv.ParseUint(rdata[0], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad MX preference %q", rdata[0])
		}
		n, err := resolveName(rdata[1], origin)
		if err != nil {
			return nil, err
		}
		return &dnswire.MX{RRHeader: h, Preference: uint16(pref), Exchange: n}, nil
	case dnswire.TypeTXT:
		if len(rdata) == 0 {
			return nil, fmt.Errorf("TXT needs at least one string")
		}
		texts := make([]string, len(rdata))
		for i, tok := range rdata {
			texts[i], _ = unquote(tok)
		}
		return &dnswire.TXT{RRHeader: h, Texts: texts}, nil
	case dnswire.TypeSRV:
		if err := need(4); err != nil {
			return nil, err
		}
		var nums [3]uint16
		for i := 0; i < 3; i++ {
			v, err := strconv.ParseUint(rdata[i], 10, 16)
			if err != nil {
				return nil, fmt.Errorf("bad SRV field %q", rdata[i])
			}
			nums[i] = uint16(v)
		}
		n, err := resolveName(rdata[3], origin)
		if err != nil {
			return nil, err
		}
		return &dnswire.SRV{RRHeader: h, Priority: nums[0], Weight: nums[1], Port: nums[2], Target: n}, nil
	case dnswire.TypeCAA:
		if err := need(3); err != nil {
			return nil, err
		}
		flags, err := strconv.ParseUint(rdata[0], 10, 8)
		if err != nil {
			return nil, fmt.Errorf("bad CAA flags %q", rdata[0])
		}
		tag, _ := unquote(rdata[1])
		val, _ := unquote(rdata[2])
		return &dnswire.CAA{RRHeader: h, Flags: uint8(flags), Tag: tag, Value: val}, nil
	default:
		return nil, fmt.Errorf("type %s not supported in master files", h.Type)
	}
}
