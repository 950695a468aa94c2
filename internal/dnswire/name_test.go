package dnswire

import (
	"cmp"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseNameCanonical(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Example.COM", "example.com."},
		{"example.com.", "example.com."},
		{".", "."},
		{"a.b.c.d.e", "a.b.c.d.e."},
		{"_dns._udp.example.com", "_dns._udp.example.com."},
		{"*.wild.example.com", "*.wild.example.com."},
		{"xn--nxasmq6b.example", "xn--nxasmq6b.example."},
	}
	for _, c := range cases {
		n, err := ParseName(c.in)
		if err != nil {
			t.Fatalf("ParseName(%q): %v", c.in, err)
		}
		if n.String() != c.want {
			t.Errorf("ParseName(%q) = %q, want %q", c.in, n, c.want)
		}
	}
}

func TestParseNameRejects(t *testing.T) {
	long := strings.Repeat("a", 64)
	huge := strings.Repeat("abcdefgh.", 32) // 288 octets encoded
	bad := []string{"", "..", "a..b", long + ".com", huge, "sp ace.com", "exa\tmple.com"}
	for _, s := range bad {
		if _, err := ParseName(s); err == nil {
			t.Errorf("ParseName(%q) succeeded, want error", s)
		}
	}
}

func TestNameMaxLengthBoundary(t *testing.T) {
	// 4 labels of 63 octets: encoded = 4*(63+1)+1 = 257 > 255 -> reject.
	l := strings.Repeat("a", 63)
	if _, err := ParseName(l + "." + l + "." + l + "." + l); err == nil {
		t.Fatal("257-octet name accepted")
	}
	// 3 labels of 63 + 1 label of 61: 64*3 + 62 + 1 = 255 -> accept.
	ok := l + "." + l + "." + l + "." + strings.Repeat("a", 61)
	if _, err := ParseName(ok); err != nil {
		t.Fatalf("255-octet name rejected: %v", err)
	}
}

func TestNameHierarchy(t *testing.T) {
	n := MustName("www.example.com")
	if got := n.Parent(); got != MustName("example.com") {
		t.Fatalf("Parent = %v", got)
	}
	if got := MustName("com").Parent(); !got.IsRoot() {
		t.Fatalf("Parent(com.) = %v", got)
	}
	if got := Root.Parent(); !got.IsRoot() {
		t.Fatalf("Parent(.) = %v", got)
	}
	if !n.IsSubdomainOf(MustName("example.com")) {
		t.Fatal("www.example.com not subdomain of example.com")
	}
	if !n.IsSubdomainOf(n) {
		t.Fatal("name not subdomain of itself")
	}
	if !n.IsSubdomainOf(Root) {
		t.Fatal("name not subdomain of root")
	}
	if n.IsSubdomainOf(MustName("ample.com")) {
		t.Fatal("www.example.com claimed subdomain of ample.com")
	}
	if MustName("example.com").IsSubdomainOf(n) {
		t.Fatal("parent claimed subdomain of child")
	}
}

func TestNameLabels(t *testing.T) {
	n := MustName("a.b.com")
	labels := n.Labels()
	if len(labels) != 3 || labels[0] != "a" || labels[2] != "com" {
		t.Fatalf("Labels = %v", labels)
	}
	if len(Root.Labels()) != 0 {
		t.Fatal("root has labels")
	}
}

func TestNamePrepend(t *testing.T) {
	n, err := MustName("example.com").Prepend("www")
	if err != nil || n != MustName("www.example.com") {
		t.Fatalf("Prepend = %v, %v", n, err)
	}
	r, err := Root.Prepend("com")
	if err != nil || r != MustName("com") {
		t.Fatalf("Prepend on root = %v, %v", r, err)
	}
	if _, err := MustName("example.com").Prepend("bad label"); err == nil {
		t.Fatal("invalid label accepted")
	}
}

func TestNameCompare(t *testing.T) {
	order := []Name{
		Root,
		MustName("com"),
		MustName("example.com"),
		MustName("a.example.com"),
		MustName("b.example.com"),
		MustName("net"),
	}
	for i := range order {
		for j := range order {
			got := order[i].Compare(order[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", order[i], order[j], got, want)
			}
		}
	}
}

// TestNameCompareMatchesLabelOrder holds Compare to its definition — labels
// compared right to left, a shorter name first — over names built to share
// suffixes, label prefixes and label tails.
func TestNameCompareMatchesLabelOrder(t *testing.T) {
	byLabels := func(n, m Name) int {
		a, b := n.Labels(), m.Labels()
		for i, j := len(a)-1, len(b)-1; i >= 0 && j >= 0; i, j = i-1, j-1 {
			if c := strings.Compare(a[i], b[j]); c != 0 {
				return c
			}
		}
		return cmp.Compare(len(a), len(b))
	}
	labels := []string{"a", "b", "ab", "ba", "a-b", "a-", "-a", "*", "_x", "a0", "b.a", "a.a", "a-b.b"}
	names := []Name{Root, {}}
	for _, x := range labels {
		names = append(names, MustName(x))
		for _, y := range labels {
			names = append(names, MustName(x+"."+y), MustName(x+"."+y+".example.com"), MustName(y+".x"+x))
		}
	}
	for _, a := range names {
		for _, b := range names {
			if got, want := a.Compare(b), byLabels(a, b); got != want {
				t.Fatalf("Compare(%q, %q) = %d, want %d", a.s, b.s, got, want)
			}
		}
	}
}

func TestPropertyParentSubdomain(t *testing.T) {
	f := func(a, b, c uint8) bool {
		labels := []string{
			string(rune('a' + a%26)),
			string(rune('a'+b%26)) + "x",
			string(rune('a'+c%26)) + "yz",
		}
		n := MustName(strings.Join(labels, "."))
		return n.IsSubdomainOf(n.Parent()) && len(n.Parent().Labels()) == len(n.Labels())-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMustNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustName did not panic")
		}
	}()
	MustName("not a name !!")
}

func TestZeroName(t *testing.T) {
	var z Name
	if !z.IsZero() || z.IsRoot() {
		t.Fatal("zero Name misclassified")
	}
	if z.String() != "<zero>" {
		t.Fatalf("zero String = %q", z.String())
	}
	if z.IsSubdomainOf(Root) || MustName("a.com").IsSubdomainOf(z) {
		t.Fatal("zero Name participates in hierarchy")
	}
}

// TestAppendNameWireMatchesParseName holds AppendNameWire to ParseName of
// the text it completes, on names valid and not, in and out of ASCII.
func TestAppendNameWireMatchesParseName(t *testing.T) {
	long := strings.Repeat("a", 63)
	for _, origin := range []string{".", "example.com."} {
		ow := MustName(origin).AppendWire(nil)
		for _, s := range []string{
			"", ".", "..", "a", "a.", "A.B", "a..b", ".a", "www.Example.COM.", "*", "_dns._udp", "a b", "a@b",
			long, long + "a", strings.Repeat(long+".", 3) + "a", strings.Repeat(long+".", 4), "Key", "İx",
			"xé", "\xff", "\x00", "a.K.",
		} {
			text := s
			if s != "" && !strings.HasSuffix(s, ".") {
				text = s + "." + strings.TrimPrefix(origin, ".")
			} else if s == "" && origin == "." {
				text = "."
			}
			want, wantErr := ParseName(text)
			got, err := AppendNameWire([]byte("x"), []byte(s), ow)
			if (err != nil) != (wantErr != nil) {
				t.Errorf("AppendNameWire(%q, %s): %v, ParseName(%q): %v", s, origin, err, text, wantErr)
				continue
			}
			if err == nil && string(got) != "x"+string(want.AppendWire(nil)) {
				t.Errorf("AppendNameWire(%q, %s) = %q, want %q", s, origin, got, want.AppendWire(nil))
			}
			if err != nil && string(got) != "x" {
				t.Errorf("AppendNameWire(%q, %s) refused but left %q", s, origin, got)
			}
		}
	}
}
