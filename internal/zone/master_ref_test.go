package zone

// The master-file parser ParseMaster replaced: text to dnswire.RR records,
// which Build then packs. It is the reference FuzzParseMasterParity holds
// ParseMaster to, and the source of the records FuzzViewLookupParity's
// oracle is built from. Keep it as it is: what it accepts and the records
// it yields are what ParseMaster must accept and pack.

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"akamaidns/internal/dnswire"
)

// refReadMaster parses a master file into records for a zone at origin,
// handing each to add in file order.
func refReadMaster(r io.Reader, origin dnswire.Name, add func(dnswire.RR) error) error {
	lines := bufio.NewScanner(r)
	lines.Buffer(nil, maxMasterLine)
	p := refParser{origin: origin, curOrigin: origin, defaultTTL: 300}
	lineNo := 0
	var pending string   // the physical lines of a parenthesized record so far
	pendingLead := false // first physical line of the record began with whitespace
	parens := 0
	for lines.Scan() {
		lineNo++
		// Text copies the line out of the scanner's buffer, which the next
		// Scan and the next parse reuse: names and TXT strings may alias it.
		line := refStripComment(lines.Text())
		opens, closes := strings.Count(line, "("), strings.Count(line, ")")
		parens += opens - closes
		if parens < 0 {
			return fmt.Errorf("line %d: unbalanced parentheses", lineNo)
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
		rr, err := p.parseLine(line, pendingLead)
		if err == nil && rr != nil {
			err = add(rr)
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := lines.Err(); err != nil {
		return err
	}
	if parens != 0 {
		return fmt.Errorf("unclosed parentheses at end of file")
	}
	return nil
}

func refStripComment(s string) string {
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

// refParser carries a master file's state from line to line.
type refParser struct {
	origin     dnswire.Name // the zone's apex: every record must be at or below it
	curOrigin  dnswire.Name // the $ORIGIN relative names are completed with
	defaultTTL uint32
	lastName   dnswire.Name // the previous record's owner
}

// parseLine parses one logical line: its record, or nil for a blank line or
// a directive.
func (p *refParser) parseLine(line string, ownerFromPrev bool) (dnswire.RR, error) {
	fields, err := refTokenize(nil, line)
	if err != nil {
		return nil, err
	}
	if len(fields) == 0 {
		return nil, nil
	}
	// Directives start with "$"; only they are compared in upper case.
	directive := ""
	if fields[0][0] == '$' {
		directive = strings.ToUpper(fields[0])
	}
	switch directive {
	case "$ORIGIN":
		if len(fields) != 2 {
			return nil, fmt.Errorf("$ORIGIN wants 1 argument")
		}
		n, err := dnswire.ParseName(fields[1])
		if err != nil {
			return nil, err
		}
		p.curOrigin = n
		return nil, nil
	case "$TTL":
		if len(fields) != 2 {
			return nil, fmt.Errorf("$TTL wants 1 argument")
		}
		ttl, err := refParseTTL(fields[1])
		if err != nil {
			return nil, err
		}
		p.defaultTTL = ttl
		return nil, nil
	case "$INCLUDE":
		return nil, fmt.Errorf("$INCLUDE is not supported")
	}

	// Owner name.
	var owner dnswire.Name
	rest := fields
	if ownerFromPrev {
		if p.lastName.IsZero() {
			return nil, fmt.Errorf("continuation line with no previous owner")
		}
		owner = p.lastName
	} else {
		owner, err = p.name(fields[0])
		if err != nil {
			return nil, fmt.Errorf("owner %q: %w", fields[0], err)
		}
		rest = fields[1:]
	}
	p.lastName = owner

	// Optional TTL and class in either order.
	ttl := p.defaultTTL
	class := dnswire.ClassINET
	for len(rest) > 0 {
		if strings.EqualFold(rest[0], "IN") {
			rest = rest[1:]
			continue
		}
		if strings.EqualFold(rest[0], "CH") || strings.EqualFold(rest[0], "HS") {
			return nil, fmt.Errorf("class %s not supported", strings.ToUpper(rest[0]))
		}
		// A TTL starts with a digit. Asking parseTTL about anything else
		// (here: the type mnemonic that ends the loop, once per record)
		// would only buy an error value to throw away.
		if c := rest[0][0]; c < '0' || c > '9' {
			break
		}
		t, err := refParseTTL(rest[0])
		if err != nil {
			break
		}
		ttl = t
		rest = rest[1:]
	}
	if len(rest) == 0 {
		return nil, fmt.Errorf("missing record type")
	}
	typ, ok := dnswire.TypeFromString(rest[0])
	if !ok {
		return nil, fmt.Errorf("unknown record type %q", rest[0])
	}
	rdata := rest[1:]
	h := dnswire.RRHeader{Name: owner, Type: typ, Class: class, TTL: ttl}
	rr, err := p.buildRR(h, rdata)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", owner, typ, err)
	}
	return rr, nil
}

// tokenize appends to out the fields of s, split on whitespace but keeping
// quoted strings intact (quotes removed, content preserved verbatim). The
// tokens alias s.
func refTokenize(out []string, s string) ([]string, error) {
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

func refUnquote(tok string) (string, bool) {
	if strings.HasPrefix(tok, "\x00") {
		return tok[1:], true
	}
	return tok, false
}

// name resolves a name token against the current $ORIGIN.
func (p *refParser) name(tok string) (dnswire.Name, error) {
	return refResolveName(tok, p.curOrigin)
}

func refResolveName(tok string, origin dnswire.Name) (dnswire.Name, error) {
	tok, _ = refUnquote(tok)
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
func refParseTTL(tok string) (uint32, error) {
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

func (p *refParser) buildRR(h dnswire.RRHeader, rdata []string) (dnswire.RR, error) {
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
		n, err := p.name(rdata[0])
		if err != nil {
			return nil, err
		}
		return &dnswire.NS{RRHeader: h, Target: n}, nil
	case dnswire.TypeCNAME:
		if err := need(1); err != nil {
			return nil, err
		}
		n, err := p.name(rdata[0])
		if err != nil {
			return nil, err
		}
		return &dnswire.CNAME{RRHeader: h, Target: n}, nil
	case dnswire.TypePTR:
		if err := need(1); err != nil {
			return nil, err
		}
		n, err := p.name(rdata[0])
		if err != nil {
			return nil, err
		}
		return &dnswire.PTR{RRHeader: h, Target: n}, nil
	case dnswire.TypeSOA:
		if err := need(7); err != nil {
			return nil, err
		}
		mname, err := p.name(rdata[0])
		if err != nil {
			return nil, err
		}
		rname, err := p.name(rdata[1])
		if err != nil {
			return nil, err
		}
		var nums [5]uint32
		for i := 0; i < 5; i++ {
			t, err := refParseTTL(rdata[2+i])
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
		n, err := p.name(rdata[1])
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
			texts[i], _ = refUnquote(tok)
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
		n, err := p.name(rdata[3])
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
		tag, _ := refUnquote(rdata[1])
		val, _ := refUnquote(rdata[2])
		return &dnswire.CAA{RRHeader: h, Flags: uint8(flags), Tag: tag, Value: val}, nil
	default:
		return nil, fmt.Errorf("type %s not supported in master files", h.Type)
	}
}
