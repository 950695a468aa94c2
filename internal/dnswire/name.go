package dnswire

import (
	"cmp"
	"errors"
	"strings"
)

// Name is a fully-qualified DNS domain name in its canonical textual form:
// lower-case, dot-terminated ("example.com."). The root name is ".".
//
// Name is a value type usable as a map key. Construct names with ParseName
// or MustName so invariants (length limits, label limits, canonical case)
// hold everywhere downstream.
type Name struct {
	s string // canonical: lower-case, trailing dot; "." for root
}

// Root is the DNS root name.
var Root = Name{s: "."}

// Name and label size limits from RFC 1035 §2.3.4 (octet limits on the wire).
const (
	maxLabelLen = 63
	// maxNameWire is the maximum encoded length of a name (255 octets).
	maxNameWire = 255
)

var (
	errNameTooLong  = errors.New("dnswire: name exceeds 255 octets")
	errLabelTooLong = errors.New("dnswire: label exceeds 63 octets")
	errEmptyLabel   = errors.New("dnswire: empty label")
	errBadLabelChar = errors.New("dnswire: invalid character in label")
)

// ParseName parses a textual domain name. A missing trailing dot is added.
// Case is folded to lower. Labels must be 1-63 octets of letters, digits,
// hyphen, or underscore (underscore appears in service names like
// "_dns._udp").
func ParseName(s string) (Name, error) {
	if s == "" {
		return Name{}, errEmptyLabel
	}
	if s == "." {
		return Root, nil
	}
	// Text that is already canonical — what String renders, and what a zone
	// keeps its owner names as — is the name: one pass, no copy.
	if s[len(s)-1] == '.' && checkName(s) == nil {
		return Name{s: s}, nil
	}
	s = strings.ToLower(s)
	if !strings.HasSuffix(s, ".") {
		s += "."
	}
	if err := checkName(s); err != nil {
		return Name{}, err
	}
	return Name{s: s}, nil
}

// AppendNameWire appends to buf the folded, uncompressed wire form of the
// textual name s, completed when it does not end in a dot with origin, a
// folded wire name: the name ParseName(s) returns when s ends in a dot or
// origin is the root, and ParseName(s + "." + origin) otherwise — "" with
// the root origin is the root. Text that ParseName would refuse is refused
// with the same error, and buf is then returned as it was. Only text outside
// ASCII, which ParseName folds rune by rune, costs an allocation.
func AppendNameWire(buf, s, origin []byte) ([]byte, error) {
	start := len(buf)
	switch {
	case len(s) == 0 && len(origin) == 1:
		return append(buf, 0), nil
	case len(s) == 0:
		return buf, errEmptyLabel
	case len(s) == 1 && s[0] == '.':
		return append(buf, 0), nil
	}
	// Each label is copied behind a length octet filled in when the label
	// ends.
	lenAt, bad := len(buf), uint8(0)
	buf = append(buf, 0)
	for _, c := range s {
		if c >= 0x80 {
			return appendParsedName(buf[:start], s, origin)
		}
		if c != '.' {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			bad |= badOctet[c]
			buf = append(buf, c)
			continue
		}
		if err := endLabel(buf, lenAt, bad); err != nil {
			return buf[:start], err
		}
		lenAt, bad = len(buf), 0
		buf = append(buf, 0)
	}
	// An absolute name's last dot left the root octet behind; a relative
	// name's last label is still open, and origin follows it.
	if s[len(s)-1] != '.' {
		if err := endLabel(buf, lenAt, bad); err != nil {
			return buf[:start], err
		}
		buf = append(buf, origin...)
	}
	if len(buf)-start > maxNameWire {
		return buf[:start], errNameTooLong
	}
	return buf, nil
}

// endLabel ends the label appended to buf behind the length octet at lenAt,
// with the checks checkName makes: bad is nonzero when the label holds an
// octet no label may.
func endLabel(buf []byte, lenAt int, bad uint8) error {
	switch n := len(buf) - lenAt - 1; {
	case n == 0:
		return errEmptyLabel
	case n > maxLabelLen:
		return errLabelTooLong
	case bad != 0:
		return errBadLabelChar
	default:
		buf[lenAt] = byte(n)
		return nil
	}
}

// appendParsedName is AppendNameWire by way of ParseName, for text outside
// ASCII.
func appendParsedName(buf, s, origin []byte) ([]byte, error) {
	text := string(s)
	if s[len(s)-1] != '.' && len(origin) > 1 {
		o, ok := NameFromFoldedWire(origin)
		if !ok {
			return buf, errors.New("dnswire: origin is not a folded wire name")
		}
		text += "." + o.s
	}
	n, err := ParseName(text)
	if err != nil {
		return buf, err
	}
	return n.AppendWire(buf), nil
}

// checkName validates lower-case, dot-terminated text: its labels and its
// wire length, where each label costs len+1, plus the terminal zero octet.
func checkName[T string | []byte](s T) error {
	wire := 1
	start := 0
	bad := uint8(0) // nonzero: the label so far holds an octet no label may
	for i := 0; i < len(s); i++ {
		if c := s[i]; c != '.' {
			bad |= badOctet[c]
			continue
		}
		n := i - start
		start = i + 1
		if n == 0 {
			return errEmptyLabel
		}
		if n > maxLabelLen {
			return errLabelTooLong
		}
		if bad != 0 {
			return errBadLabelChar
		}
		wire += n + 1
	}
	if wire > maxNameWire {
		return errNameTooLong
	}
	return nil
}

// badOctet is 1 for every octet a label may not hold: a label holds only
// lower-case letters, digits, hyphen, underscore and the wildcard asterisk.
var badOctet = func() (t [256]uint8) {
	for c := range t {
		ok := 'a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '-' || c == '_' || c == '*'
		if !ok {
			t[c] = 1
		}
	}
	return t
}()

// MustName is ParseName that panics on error; for literals in tests and
// configuration tables.
func MustName(s string) Name {
	n, err := ParseName(s)
	if err != nil {
		panic(err)
	}
	return n
}

// IsZero reports whether n is the invalid zero Name (distinct from Root).
func (n Name) IsZero() bool { return n.s == "" }

// IsRoot reports whether n is the root ".".
func (n Name) IsRoot() bool { return n.s == "." }

// String returns the canonical textual form.
func (n Name) String() string {
	if n.s == "" {
		return "<zero>"
	}
	return n.s
}

// Labels splits the name into its labels, most-specific first.
// "a.b.com." -> ["a" "b" "com"]. The root name has no labels.
func (n Name) Labels() []string {
	if n.s == "." || n.s == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(n.s, "."), ".")
}

// Parent returns the name with the leftmost label removed; the parent of a
// single-label name is the root; the parent of the root is the root.
func (n Name) Parent() Name {
	if n.s == "." || n.s == "" {
		return Root
	}
	i := strings.IndexByte(n.s, '.')
	rest := n.s[i+1:]
	if rest == "" {
		return Root
	}
	return Name{s: rest}
}

// IsSubdomainOf reports whether n is equal to or below parent in the DNS
// hierarchy. Every name is a subdomain of the root.
func (n Name) IsSubdomainOf(parent Name) bool {
	if n.s == "" || parent.s == "" {
		return false
	}
	if parent.s == "." {
		return true
	}
	if n.s == parent.s {
		return true
	}
	// n ends in parent, with a label boundary just before it; compared in
	// place, so routing and zone loads build no "."+parent string.
	d := len(n.s) - len(parent.s)
	return d > 0 && n.s[d-1] == '.' && n.s[d:] == parent.s
}

// Prepend returns the name formed by adding one label in front of n.
func (n Name) Prepend(label string) (Name, error) {
	if n.s == "" {
		return Name{}, errors.New("dnswire: Prepend on zero Name")
	}
	if n.s == "." {
		return ParseName(label + ".")
	}
	return ParseName(label + "." + n.s)
}

// Compare orders names in canonical DNS order (by reversed label sequence),
// which groups subdomains under their parents. Returns -1, 0, or 1. It
// allocates nothing, and names that share an ancestor — any two owners of one
// zone — cost one pass over the bytes they share: zones sort by it.
func (n Name) Compare(m Name) int {
	a, b := n.s, m.s
	if a == "." {
		a = ""
	}
	if b == "." {
		b = ""
	}
	// Skip the common suffix bytewise, then step forward to the first label
	// boundary inside it: what is left of each name ends in the rightmost
	// label the two do not share.
	i, j := len(a), len(b)
	for i > 0 && j > 0 && a[i-1] == b[j-1] {
		i, j = i-1, j-1
	}
	if i > 0 && a[i-1] != '.' || j > 0 && b[j-1] != '.' {
		k := strings.IndexByte(a[i:], '.') + 1
		i, j = i+k, j+k
	}
	if i == 0 || j == 0 {
		// Equal, or one is an ancestor of the other and sorts first.
		return cmp.Compare(i, j)
	}
	a, b = a[:i-1], b[:j-1]
	return strings.Compare(a[strings.LastIndexByte(a, '.')+1:], b[strings.LastIndexByte(b, '.')+1:])
}

// AppendWire appends the uncompressed wire encoding of the name to buf. The
// zero Name appends nothing (compiled-view callers only encode valid names).
func (n Name) AppendWire(buf []byte) []byte {
	if n.s == "" {
		return buf
	}
	out, err := n.appendWire(buf)
	if err != nil {
		return buf
	}
	return out
}

// WireLen reports the encoded (uncompressed) length of the name, or 0 for
// the zero Name.
func (n Name) WireLen() int {
	if n.s == "" {
		return 0
	}
	return n.wireLen()
}

// appendWire encodes the name without compression into buf.
func (n Name) appendWire(buf []byte) ([]byte, error) {
	if n.s == "" {
		return nil, errors.New("dnswire: encoding zero Name")
	}
	// Walk the canonical text in place (no Labels slice): the zone router
	// renders every decoded qname through here.
	if n.s != "." {
		for rest := n.s; rest != ""; {
			label, tail, _ := strings.Cut(rest, ".")
			buf = append(buf, byte(len(label)))
			buf = append(buf, label...)
			rest = tail
		}
	}
	return append(buf, 0), nil
}

// wireLen reports the encoded (uncompressed) length of the name.
func (n Name) wireLen() int {
	if n.s == "." {
		return 1
	}
	return len(n.s) + 1
}
