package zone

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"strings"
	"unicode/utf8"

	"akamaidns/internal/dnswire"
)

// ParseMaster parses a zone in a pragmatic subset of RFC 1035 master-file
// syntax: one record per line, "$ORIGIN" and "$TTL" directives, "@" for the
// origin, relative names, comments with ";", and quoted TXT strings.
// Parenthesized multi-line records are joined before parsing. A physical
// line longer than maxMasterLine is an error.
//
// Each record goes from its text straight to the wire bytes the zone keeps:
// its owner is resolved into folded wire form and its body (TYPE CLASS TTL
// RDLEN RDATA) packed from its tokens into the build scratch, through the
// dnswire helpers dnswire.AppendRRBody packs the same fields with, so a
// record is accepted or refused here exactly as its dnswire.RR would be. No
// line string, record or name string is made on the way.
func ParseMaster(r io.Reader, origin dnswire.Name) (*Zone, error) {
	sc := getScratch(origin)
	defer putScratch(sc)
	if err := sc.readMaster(r, origin); err != nil {
		return nil, err
	}
	return sc.zone(origin), nil
}

// readMaster packs a master file's records into sc as build entries of a
// zone at origin, in file order.
func (sc *scratch) readMaster(r io.Reader, origin dnswire.Name) error {
	lines := bufio.NewScanner(r)
	// The scanner starts at the pooled buffer and grows past it on demand;
	// only the cap is raised, so a typical zone costs no scanner buffer at
	// all, not a megabyte.
	lines.Buffer(sc.line, maxMasterLine)
	sc.origin = append(sc.origin[:0], sc.apex...)
	p := masterParser{sc: sc, origin: sc.origin, ttl: 300}
	lineNo := 0
	lead := false // the first physical line of the record began with whitespace
	parens := 0
	for lines.Scan() {
		lineNo++
		// The line aliases the scanner's buffer, which the next Scan
		// reuses: what a record keeps of it is copied into sc.bodies.
		line := stripComment(lines.Bytes())
		opens, closes := bytes.Count(line, []byte("(")), bytes.Count(line, []byte(")"))
		parens += opens - closes
		if parens < 0 {
			return fmt.Errorf("line %d: unbalanced parentheses", lineNo)
		}
		if len(sc.pending) == 0 {
			// Leading whitespace on the record's first line means "same
			// owner as the previous record" (RFC 1035 §5.1).
			lead = len(line) > 0 && (line[0] == ' ' || line[0] == '\t')
		}
		// Only a record that uses parentheses pays for joining its lines
		// and blanking them out; nearly every line is a whole record as is.
		if len(sc.pending) > 0 || opens+closes > 0 {
			sc.pending = append(append(sc.pending, ' '), line...)
			if parens > 0 {
				continue
			}
			line = sc.pending
			for i, c := range line {
				if c == '(' || c == ')' {
					line[i] = ' '
				}
			}
			sc.pending = sc.pending[:0]
		}
		if err := p.parseLine(line, lead); err != nil {
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

func stripComment(s []byte) []byte {
	inQuote := false
	for i, c := range s {
		switch c {
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

// masterParser carries a master file's state from line to line. Every name
// it holds is folded wire form in the build scratch.
type masterParser struct {
	sc     *scratch // the build: tokens, entries and their bytes
	origin []byte   // the $ORIGIN relative names are completed with
	ttl    uint32   // the $TTL
	last   []byte   // the previous record's owner
}

// parseLine parses one logical line: it packs its record, if it has one
// and is not a blank line or a directive, into the build.
func (p *masterParser) parseLine(line []byte, ownerFromPrev bool) error {
	sc := p.sc
	var err error
	if sc.toks, err = tokenize(sc.toks[:0], line); err != nil {
		return err
	}
	fields := sc.toks
	if len(fields) == 0 {
		return nil
	}
	// Directives start with "$"; only they are compared in upper case.
	if fields[0][0] == '$' {
		switch {
		case isDirective(fields[0], "$ORIGIN"):
			if len(fields) != 2 {
				return fmt.Errorf("$ORIGIN wants 1 argument")
			}
			if sc.origin, err = dnswire.AppendNameWire(sc.origin[:0], fields[1], rootWire); err != nil {
				return err
			}
			p.origin = sc.origin
			return nil
		case isDirective(fields[0], "$TTL"):
			if len(fields) != 2 {
				return fmt.Errorf("$TTL wants 1 argument")
			}
			ttl, err := parseTTL(fields[1])
			if err != nil {
				return err
			}
			p.ttl = ttl
			return nil
		case isDirective(fields[0], "$INCLUDE"):
			return fmt.Errorf("$INCLUDE is not supported")
		}
	}

	// Owner name: the previous record's, or resolved into the scratch
	// ahead of the body.
	owner, rest := p.last, fields
	if ownerFromPrev {
		if owner == nil {
			return fmt.Errorf("continuation line with no previous owner")
		}
	} else {
		start := len(sc.bodies)
		if sc.bodies, err = p.appendName(sc.bodies, fields[0]); err != nil {
			return fmt.Errorf("owner %q: %w", fields[0], err)
		}
		owner, rest = sc.bodies[start:len(sc.bodies):len(sc.bodies)], fields[1:]
	}
	p.last = owner

	// Optional TTL and class in either order.
	ttl := p.ttl
	for len(rest) > 0 {
		if bytes.EqualFold(rest[0], []byte("IN")) {
			rest = rest[1:]
			continue
		}
		if bytes.EqualFold(rest[0], []byte("CH")) || bytes.EqualFold(rest[0], []byte("HS")) {
			return fmt.Errorf("class %s not supported", bytes.ToUpper(rest[0]))
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
	typ, ok := dnswire.TypeFromString(string(rest[0]))
	if !ok {
		return fmt.Errorf("unknown record type %q", rest[0])
	}
	if !isSubdomainWire(owner, sc.apex) {
		return fmt.Errorf("record %s out of zone", ownerName(owner))
	}
	if typ == dnswire.TypeSOA && !bytes.Equal(owner, sc.apex) {
		return fmt.Errorf("SOA at non-apex %s", ownerName(owner))
	}
	start := len(sc.bodies)
	buf, err := p.appendRData(dnswire.BeginRRBody(sc.bodies, typ, dnswire.ClassINET, ttl), typ, rest[1:])
	if err == nil {
		buf, err = dnswire.EndRRBody(buf, start)
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", ownerName(owner), typ, err)
	}
	sc.bodies = buf[:start+len(storeBody(buf[start:], sc.apex))]
	end := len(sc.bodies)
	sc.ents = append(sc.ents, entry{owner: owner, typ: typ, body: sc.bodies[start:end:end]})
	return nil
}

// rootWire is the root name in wire form.
var rootWire = []byte{0}

// isDirective reports whether tok, upper-cased as strings.ToUpper does,
// is the directive name; ASCII text is compared in place.
func isDirective(tok []byte, name string) bool {
	if !isASCII(tok) {
		return strings.ToUpper(string(tok)) == name
	}
	if len(tok) != len(name) {
		return false
	}
	for i, c := range tok {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}

func isASCII(b []byte) bool {
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// tokenize appends to out the fields of s, split on whitespace but keeping
// quoted strings intact: a quoted field is its opening quote and its
// content verbatim, the closing quote dropped. The tokens alias s.
func tokenize(out [][]byte, s []byte) ([][]byte, error) {
	i := 0
	for i < len(s) {
		c := s[i]
		if c == ' ' || c == '\t' {
			i++
			continue
		}
		j := i + 1
		if c == '"' {
			for j < len(s) && s[j] != '"' {
				j++
			}
			if j >= len(s) {
				return nil, fmt.Errorf("unterminated quote")
			}
			out = append(out, s[i:j])
			i = j + 1
			continue
		}
		for j < len(s) && s[j] != ' ' && s[j] != '\t' {
			j++
		}
		out = append(out, s[i:j])
		i = j
	}
	return out, nil
}

// unquote returns a field's text: a quoted field without its quote. A
// field that starts with a NUL octet loses that octet too, as in the
// reference parser (master_ref_test.go), which marks quoted fields so.
// Where a field is read as it is — a number, an address, a type or class,
// a directive's name — the quote makes a quoted field fail to parse.
func unquote(tok []byte) []byte {
	if len(tok) > 0 && (tok[0] == '"' || tok[0] == 0) {
		return tok[1:]
	}
	return tok
}

// appendName appends the folded wire form of a name field, "@" or resolved
// against the current $ORIGIN.
func (p *masterParser) appendName(buf, tok []byte) ([]byte, error) {
	tok = unquote(tok)
	if len(tok) == 1 && tok[0] == '@' {
		return append(buf, p.origin...), nil
	}
	return dnswire.AppendNameWire(buf, tok, p.origin)
}

// parseTTL accepts plain seconds or BIND-style unit suffixes (30s 20m 4h 1d 1w).
func parseTTL(tok []byte) (uint32, error) {
	if len(tok) == 0 {
		return 0, fmt.Errorf("empty TTL")
	}
	mult := uint64(1)
	digits := tok[:len(tok)-1]
	switch tok[len(tok)-1] {
	case 's', 'S':
	case 'm', 'M':
		mult = 60
	case 'h', 'H':
		mult = 3600
	case 'd', 'D':
		mult = 86400
	case 'w', 'W':
		mult = 604800
	default:
		digits = tok
	}
	v, ok := parseUint(digits, 32)
	if !ok {
		return 0, fmt.Errorf("bad TTL %q", tok)
	}
	v *= mult
	if v > 1<<31-1 {
		return 0, fmt.Errorf("TTL %d out of range", v)
	}
	return uint32(v), nil
}

// parseUint is strconv.ParseUint(s, 10, bits) over bytes: decimal digits
// only, at least one, the value below 1<<bits.
func parseUint(s []byte, bits int) (uint64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	maxVal := uint64(1)<<bits - 1
	v := uint64(0)
	for _, c := range s {
		d := uint64(c - '0')
		if d > 9 || v > (maxVal-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// rdataFields is the field count of each type's RDATA in a master file;
// TXT takes one or more.
var rdataFields = map[dnswire.Type]int{
	dnswire.TypeA: 1, dnswire.TypeAAAA: 1, dnswire.TypeNS: 1, dnswire.TypeCNAME: 1, dnswire.TypePTR: 1,
	dnswire.TypeSOA: 7, dnswire.TypeMX: 2, dnswire.TypeSRV: 4, dnswire.TypeCAA: 3,
}

// appendRData packs a record's RDATA from its fields.
func (p *masterParser) appendRData(buf []byte, typ dnswire.Type, rdata [][]byte) ([]byte, error) {
	if n, fixed := rdataFields[typ]; fixed && len(rdata) != n {
		return nil, fmt.Errorf("want %d RDATA fields, have %d", n, len(rdata))
	}
	switch typ {
	case dnswire.TypeA:
		ip, ok := parseIPv4(rdata[0])
		if !ok {
			return nil, fmt.Errorf("bad IPv4 address %q", rdata[0])
		}
		return append(buf, ip[:]...), nil
	case dnswire.TypeAAAA:
		ip, ok := parseIPv6(rdata[0])
		if !ok {
			return nil, fmt.Errorf("bad IPv6 address %q", rdata[0])
		}
		return append(buf, ip[:]...), nil
	case dnswire.TypeNS, dnswire.TypeCNAME, dnswire.TypePTR:
		return p.appendName(buf, rdata[0])
	case dnswire.TypeSOA:
		var err error
		for _, tok := range rdata[:2] {
			if buf, err = p.appendName(buf, tok); err != nil {
				return nil, err
			}
		}
		for _, tok := range rdata[2:] {
			t, err := parseTTL(tok)
			if err != nil {
				return nil, err
			}
			buf = binary.BigEndian.AppendUint32(buf, t)
		}
		return buf, nil
	case dnswire.TypeMX:
		pref, ok := parseUint(rdata[0], 16)
		if !ok {
			return nil, fmt.Errorf("bad MX preference %q", rdata[0])
		}
		return p.appendName(binary.BigEndian.AppendUint16(buf, uint16(pref)), rdata[1])
	case dnswire.TypeTXT:
		if len(rdata) == 0 {
			return nil, fmt.Errorf("TXT needs at least one string")
		}
		var err error
		for _, tok := range rdata {
			if buf, err = dnswire.AppendCharString(buf, unquote(tok)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case dnswire.TypeSRV:
		for _, tok := range rdata[:3] {
			v, ok := parseUint(tok, 16)
			if !ok {
				return nil, fmt.Errorf("bad SRV field %q", tok)
			}
			buf = binary.BigEndian.AppendUint16(buf, uint16(v))
		}
		return p.appendName(buf, rdata[3])
	case dnswire.TypeCAA:
		flags, ok := parseUint(rdata[0], 8)
		if !ok {
			return nil, fmt.Errorf("bad CAA flags %q", rdata[0])
		}
		return dnswire.AppendCAA(buf, uint8(flags), unquote(rdata[1]), unquote(rdata[2]))
	default:
		return nil, fmt.Errorf("type %s not supported in master files", typ)
	}
}

// parseIPv4 parses an address as netip.ParseAddr does and reports whether
// it is IPv4: four decimal octets, no leading zeros.
func parseIPv4(s []byte) (ip [4]byte, ok bool) {
	val, pos, digits := 0, 0, 0
	for i, c := range s {
		switch {
		case '0' <= c && c <= '9':
			if digits == 1 && val == 0 {
				return ip, false
			}
			val = val*10 + int(c-'0')
			digits++
			if val > 255 {
				return ip, false
			}
		case c == '.':
			if i == 0 || i == len(s)-1 || s[i-1] == '.' || pos == 3 {
				return ip, false
			}
			ip[pos] = byte(val)
			pos++
			val, digits = 0, 0
		default:
			return ip, false
		}
	}
	if pos < 3 {
		return ip, false
	}
	ip[3] = byte(val)
	return ip, true
}

// parseIPv6 parses an address as netip.ParseAddr does and reports whether
// it is IPv6 and not an IPv4-mapped one. Hex groups with at most one "::"
// are parsed here; an address with a zone or an embedded IPv4 address goes
// through netip.
func parseIPv6(s []byte) (ip [16]byte, ok bool) {
	if bytes.ContainsAny(s, ".%") {
		a, err := netip.ParseAddr(string(s))
		return a.As16(), err == nil && a.Is6() && !a.Is4In6()
	}
	if bytes.IndexByte(s, ':') < 0 {
		return ip, false
	}
	ellipsis := -1 // where "::" sits in ip
	if len(s) >= 2 && s[0] == ':' && s[1] == ':' {
		ellipsis = 0
		if s = s[2:]; len(s) == 0 {
			return ip, true
		}
	}
	i := 0
	for i < 16 {
		off, acc := 0, uint32(0)
		for ; off < len(s); off++ {
			d, isHex := hexDigit(s[off])
			if !isHex {
				break
			}
			if off > 3 {
				return ip, false
			}
			acc = acc<<4 | d
		}
		if off == 0 {
			return ip, false
		}
		ip[i], ip[i+1] = byte(acc>>8), byte(acc)
		i += 2
		if s = s[off:]; len(s) == 0 {
			break
		}
		if s[0] != ':' || len(s) == 1 {
			return ip, false
		}
		if s = s[1:]; s[0] == ':' {
			if ellipsis >= 0 {
				return ip, false
			}
			ellipsis = i
			if s = s[1:]; len(s) == 0 {
				break
			}
		}
	}
	if len(s) != 0 {
		return ip, false
	}
	if i < 16 {
		if ellipsis < 0 {
			return ip, false
		}
		n := 16 - i
		copy(ip[ellipsis+n:], ip[ellipsis:i])
		clear(ip[ellipsis : ellipsis+n])
	} else if ellipsis >= 0 {
		return ip, false
	}
	mapped := [12]byte{10: 0xff, 11: 0xff}
	return ip, [12]byte(ip[:12]) != mapped
}

func hexDigit(c byte) (uint32, bool) {
	switch {
	case '0' <= c && c <= '9':
		return uint32(c - '0'), true
	case 'a' <= c && c <= 'f':
		return uint32(c - 'a' + 10), true
	case 'A' <= c && c <= 'F':
		return uint32(c - 'A' + 10), true
	}
	return 0, false
}
