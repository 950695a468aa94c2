package dnswire

import (
	"bytes"
	"strings"
	"testing"
)

// Native fuzz targets. Under plain `go test` they run the seed corpus; with
// `go test -fuzz=FuzzUnpack` they explore. The invariants they hold:
// Unpack must never panic, and anything it accepts must re-Pack and
// re-Unpack to an equivalent message (modulo compression layout).

func FuzzUnpack(f *testing.F) {
	// Seed corpus: a realistic response, a query, EDNS, and junk.
	m := sampleMessage()
	wire, _ := m.Pack()
	f.Add(wire)
	q, _ := NewQuery(7, MustName("seed.example.com"), TypeAAAA).Pack()
	f.Add(q)
	eq := NewQuery(9, MustName("e.example.com"), TypeA)
	opt := NewOPT(4096)
	opt.SetCookie(Cookie{Client: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}})
	eq.Additional = append(eq.Additional, opt)
	ew, _ := eq.Pack()
	f.Add(ew)
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		// Round-trip property: a decoded message re-encodes and re-decodes
		// to the same structure.
		wire2, err := m.Pack()
		if err != nil {
			// Some decodable messages are not re-encodable (e.g. names
			// that decode from compressed junk but exceed our stricter
			// packing rules); that is acceptable, not a crash.
			return
		}
		m2, err := Unpack(wire2)
		if err != nil {
			t.Fatalf("re-unpack of packed message failed: %v", err)
		}
		w3, err := m2.Pack()
		if err != nil {
			t.Fatalf("re-pack failed: %v", err)
		}
		if !bytes.Equal(wire2, w3) {
			t.Fatalf("pack not a fixpoint:\n%x\n%x", wire2, w3)
		}
	})
}

// FuzzUnpackInto targets the zero-alloc decode path: decoding into a dirty,
// reused Message (the pooled-per-worker pattern of the UDP hot path) must
// behave exactly like a fresh Unpack — same acceptance, same structure, no
// panics, and no state leaking from the previous occupant.
func FuzzUnpackInto(f *testing.F) {
	m := sampleMessage()
	wire, _ := m.Pack()
	f.Add(wire)
	q, _ := NewQuery(7, MustName("seed.example.com"), TypeAAAA).Pack()
	f.Add(q)
	eq := NewQuery(9, MustName("e.example.com"), TypeA)
	opt := NewOPT(4096)
	opt.SetCookie(Cookie{Client: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}})
	eq.Additional = append(eq.Additional, opt)
	ew, _ := eq.Pack()
	f.Add(ew)
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The reusable message starts dirty: pre-populate every section so
		// incomplete resets would show up as leaked records.
		reused := sampleMessage()
		errInto := UnpackInto(reused, data)
		fresh, errFresh := Unpack(data)
		if (errInto == nil) != (errFresh == nil) {
			t.Fatalf("UnpackInto err=%v but Unpack err=%v", errInto, errFresh)
		}
		if errInto != nil {
			return
		}
		// Identical decode: both pack to identical bytes (or both refuse).
		wa, errA := reused.AppendPack(nil)
		wb, errB := fresh.Pack()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("repack disagreement: into=%v fresh=%v", errA, errB)
		}
		if errA == nil && !bytes.Equal(wa, wb) {
			t.Fatalf("UnpackInto decoded differently than Unpack:\n%x\n%x", wa, wb)
		}
		// unpack -> pack -> unpack is stable.
		if errA == nil {
			again := &Message{}
			if err := UnpackInto(again, wa); err != nil {
				t.Fatalf("re-unpack of packed message failed: %v", err)
			}
			w2, err := again.AppendPack(nil)
			if err != nil {
				t.Fatalf("re-pack failed: %v", err)
			}
			if !bytes.Equal(wa, w2) {
				t.Fatalf("pack not a fixpoint:\n%x\n%x", wa, w2)
			}
		}
	})
}

// FuzzAppendPack targets the append-style encoder: packing into a non-empty
// caller buffer must produce exactly Pack()'s bytes after the prefix —
// compression offsets are message-relative, so the prefix must not shift
// pointer targets.
func FuzzAppendPack(f *testing.F) {
	m := sampleMessage()
	wire, _ := m.Pack()
	f.Add(wire, []byte("prefix"))
	q, _ := NewQuery(7, MustName("seed.example.com"), TypeAAAA).Pack()
	f.Add(q, []byte{})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C}, []byte{0xFF})
	f.Fuzz(func(t *testing.T, data, prefix []byte) {
		msg, err := Unpack(data)
		if err != nil {
			return
		}
		plain, errPlain := msg.Pack()
		appended, errApp := msg.AppendPack(append([]byte(nil), prefix...))
		if (errPlain == nil) != (errApp == nil) {
			t.Fatalf("Pack err=%v but AppendPack err=%v", errPlain, errApp)
		}
		if errPlain != nil {
			return
		}
		if !bytes.Equal(appended[:len(prefix)], prefix) {
			t.Fatalf("AppendPack clobbered the caller's prefix")
		}
		if !bytes.Equal(appended[len(prefix):], plain) {
			t.Fatalf("AppendPack after %d-byte prefix differs from Pack:\n%x\n%x",
				len(prefix), appended[len(prefix):], plain)
		}
		// And the appended bytes decode back to the same message.
		rt, err := Unpack(appended[len(prefix):])
		if err != nil {
			t.Fatalf("unpack of AppendPack output failed: %v", err)
		}
		w2, err := rt.Pack()
		if err != nil {
			t.Fatalf("re-pack failed: %v", err)
		}
		if !bytes.Equal(w2, plain) {
			t.Fatalf("round trip through AppendPack unstable:\n%x\n%x", w2, plain)
		}
	})
}

func FuzzParseName(f *testing.F) {
	for _, s := range []string{"example.com", ".", "a.b.c.d.e.f", "*.wild.test", "-dash.test", "_srv._udp.x"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParseName(s)
		if err != nil {
			return
		}
		// Accepted names re-parse to themselves.
		n2, err := ParseName(n.String())
		if err != nil || n2 != n {
			t.Fatalf("canonical form unstable: %q -> %q (%v)", s, n, err)
		}
		// And encode within limits.
		buf, err := n.appendWire(nil)
		if err != nil || len(buf) > 255 {
			t.Fatalf("wire form invalid: %d bytes, %v", len(buf), err)
		}
	})
}

// isSubdomainOfRef is IsSubdomainOf as first written: a suffix test against
// a freshly built "."+parent string.
func isSubdomainOfRef(n, parent Name) bool {
	if n.s == "" || parent.s == "" {
		return false
	}
	if parent.s == "." || n.s == parent.s {
		return true
	}
	return strings.HasSuffix(n.s, "."+parent.s)
}

// FuzzIsSubdomainOf holds IsSubdomainOf to isSubdomainOfRef on two arbitrary
// strings and on the pairs built from them that share a suffix, so random
// input reaches the true branch too. Name's invariants are not required: the
// in-place comparison must agree on any bytes.
func FuzzIsSubdomainOf(f *testing.F) {
	for _, seed := range [][2]string{
		{"www.example.com.", "example.com."}, {"www.example.com.", "ample.com."},
		{"example.com.", "www.example.com."}, {"a.", "."}, {".", "."}, {"", "a."},
		{"xexample.com.", "example.com."}, {".example.com.", "example.com."},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		for _, p := range [][2]string{{a, b}, {b, a}, {a + "." + b, b}, {a + b, b}, {a + "." + b, "." + b}, {a, "."}} {
			n, parent := Name{s: p[0]}, Name{s: p[1]}
			if got, want := n.IsSubdomainOf(parent), isSubdomainOfRef(n, parent); got != want {
				t.Fatalf("Name{%q}.IsSubdomainOf(Name{%q}) = %v, reference says %v", p[0], p[1], got, want)
			}
		}
	})
}
