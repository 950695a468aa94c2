// Package nameserver implements the platform's authoritative nameserver
// software (§3.1, §4.2, §4.3): the query-answering engine over a zone
// store, the scoring pipeline and penalty queues, a compute/IO capacity
// model, query-of-death containment, metadata staleness self-suspension,
// and the health/metrics surface the monitoring agent consumes.
package nameserver

import (
	"net/netip"
	"strconv"
	"strings"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/zone"
)

// ClientKey identifies the client a response is tailored for: the querying
// resolver by transport identity, or — when the query carries an
// EDNS-Client-Subnet option — the end-user subnet itself. It is a comparable
// value type so per-query keys are built with zero allocations (the previous
// string keys cost a formatting allocation on every ECS query).
type ClientKey struct {
	// Resolver is the transport-level resolver identity; empty when the key
	// is subnet-based.
	Resolver string
	// Addr and Prefix hold the ECS client subnet when ECS is set.
	Addr   netip.Addr
	Prefix uint8
	ECS    bool
}

// ResolverKey keys tailoring by resolver identity.
func ResolverKey(id string) ClientKey { return ClientKey{Resolver: id} }

// ECSClientKey keys tailoring by the query's EDNS-Client-Subnet prefix.
func ECSClientKey(e dnswire.ECS) ClientKey {
	return ClientKey{Addr: e.Addr, Prefix: e.SourcePrefix, ECS: true}
}

// String renders the key for logs and diagnostics (allocates; not for the
// serve path).
func (k ClientKey) String() string {
	if !k.ECS {
		return k.Resolver
	}
	return k.Addr.String() + "/" + strconv.Itoa(int(k.Prefix))
}

// Tailorer lets the Mapping Intelligence rewrite address answers per
// querying client (the CDN/GTM behaviour of §3.2: "Akamai DNS changes the
// IP address returned for a hostname, in response to the query's source IP
// address or EDNS-Client-Subnet option").
type Tailorer interface {
	// TailorA returns the addresses to serve for qname to the given client,
	// or nil to use the zone's static records. ttl applies when addresses
	// are returned.
	TailorA(qname dnswire.Name, client ClientKey) (addrs []netip.Addr, ttl uint32, ok bool)
}

// Engine answers DNS queries from a zone store. It is pure protocol logic:
// no capacity model, no filters. Both the event-driven simulation Server
// and the real UDP/TCP server (cmd/authdns) build on it.
type Engine struct {
	Store *zone.Store
	// Tailor is optional per-client answer rewriting.
	Tailor Tailorer
}

// NewEngine wraps a store.
func NewEngine(store *zone.Store) *Engine { return &Engine{Store: store} }

// ednsPayload is the UDP payload size the engine's OPT echo advertises.
const ednsPayload = 1232

// Answer produces the response for one query message. client identifies
// the querying resolver (or its ECS subnet when present) for answer
// tailoring. The crashed return simulates the process dying mid-query
// (§4.2.4): the caller must treat the response as never sent.
func (e *Engine) Answer(q *dnswire.Message, client ClientKey) (resp *dnswire.Message, matchedZone dnswire.Name, crashed bool) {
	resp = &dnswire.Message{}
	switch z, crashed := e.AnswerInto(resp, q, client); {
	case crashed:
		return nil, dnswire.Name{}, true
	case z != nil:
		matchedZone = z.Origin()
	}
	return resp, matchedZone, false
}

// AnswerInto is Answer writing into a caller-owned response, which it resets
// first (dnswire.Message.ResetReply), and reporting the zone version it
// answered from (nil when none). The sections are copied into resp's own
// slices, and the OPT record and ECS bytes of an earlier answer are reused,
// so a response kept per worker answers without allocating once its slices
// have grown. Records in resp are shared with the zone and must not be
// modified.
func (e *Engine) AnswerInto(resp, q *dnswire.Message, client ClientKey) (z *zone.Zone, crashed bool) {
	// The EDNS echo; it is appended after any glue below.
	opt := resp.ResetReply(q, ednsPayload)
	if len(q.Questions) != 1 || q.OpCode != dnswire.OpQuery {
		resp.RCode = dnswire.RCodeFormErr
		return nil, false
	}
	question := q.Questions[0]
	if question.Class != dnswire.ClassINET && question.Class != dnswire.ClassANY {
		resp.RCode = dnswire.RCodeRefused
		return nil, false
	}
	ecs, hasECS := dnswire.ECS{}, false
	if opt != nil {
		if ecs, hasECS = q.ClientSubnet(); hasECS {
			// Prefer the ECS prefix as the tailoring key (end-user mapping).
			client = ECSClientKey(ecs)
		}
	}
	// The crash trap: a corner-case in complex query-processing code paths
	// (§4.2.4). Fault-injection tests and attack generators set this label.
	if strings.Contains(question.Name.String(), dnswire.QoDMarkerLabel) {
		return nil, true
	}
	tailored := false
	if z = e.Store.Find(question.Name); z != nil {
		tailored = e.lookup(resp, z, question, client)
	} else {
		resp.RCode = dnswire.RCodeRefused
	}
	if hasECS {
		// The answer's scope (RFC 7871 §7.2.1): the source prefix when the
		// subnet chose it, 0 when it holds for every client, so a resolver
		// caches an untailored answer once, not once per subnet.
		ecs.ScopePrefix = 0
		if tailored {
			ecs.ScopePrefix = ecs.SourcePrefix
		}
		_ = opt.SetClientSubnet(ecs)
	}
	if opt != nil {
		resp.Additional = append(resp.Additional, opt)
	}
	return z, false
}

// lookup fills resp's sections from z's compiled view: the lookup algorithm
// (FuzzViewLookupParity holds it to the reference oracle) with no lock
// acquisition, answered with records decoded from the view's arena for
// this response alone. It reports whether tailoring rewrote the answer.
func (e *Engine) lookup(resp *dnswire.Message, z *zone.Zone, question dnswire.Question, client ClientKey) (tailored bool) {
	resp.Authoritative = true
	ans := z.View().Lookup(question.Name, question.Type)
	switch ans.Result {
	case zone.Success:
		resp.Answers = append(resp.Answers, ans.Answer...)
		tailored = e.applyTailoring(resp, question, client)
	case zone.Delegation:
		resp.Authoritative = false
		resp.Authority = append(resp.Authority, ans.NS...)
		resp.Additional = append(resp.Additional, ans.Glue...)
	case zone.NXDomain:
		resp.RCode = dnswire.RCodeNXDomain
		if ans.SOA != nil {
			resp.Authority = append(resp.Authority, ans.SOA)
		}
	case zone.NoData:
		if ans.SOA != nil {
			resp.Authority = append(resp.Authority, ans.SOA)
		}
	}
	return tailored
}

// applyTailoring replaces terminal A answers via the Tailorer when it has an
// opinion about the final owner name of the answer chain, and reports
// whether it had one.
func (e *Engine) applyTailoring(resp *dnswire.Message, q dnswire.Question, client ClientKey) bool {
	if e.Tailor == nil || (q.Type != dnswire.TypeA && q.Type != dnswire.TypeANY) {
		return false
	}
	// The final owner: follow any CNAMEs in the answer.
	owner := q.Name
	for _, rr := range resp.Answers {
		if cn, ok := rr.(*dnswire.CNAME); ok && cn.Name == owner {
			owner = cn.Target
		}
	}
	addrs, ttl, ok := e.Tailor.TailorA(owner, client)
	if !ok {
		return false
	}
	// Drop existing terminal A records, keep the CNAME chain.
	kept := resp.Answers[:0]
	for _, rr := range resp.Answers {
		if a, isA := rr.(*dnswire.A); isA && a.Name == owner {
			continue
		}
		kept = append(kept, rr)
	}
	for _, addr := range addrs {
		kept = append(kept, &dnswire.A{
			RRHeader: dnswire.RRHeader{Name: owner, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: ttl},
			Addr:     addr,
		})
	}
	resp.Answers = kept
	return true
}

// StoreZoneInfo adapts a zone.Store to the filters.ZoneInfo interface: every
// hosted zone's compiled view is its tree of valid hostnames, read lock-free
// and never stale.
type StoreZoneInfo struct{ Store *zone.Store }

// CanExist implements filters.ZoneInfo. It routes qname afresh, so the
// answer comes from the version of the zone that would serve the query now;
// a name no zone serves any more gets REFUSED, which is not NXDOMAIN either.
func (s StoreZoneInfo) CanExist(qname []byte) bool {
	z, _, found := s.Store.FindWire(qname)
	return !found || z.View().CanExist(qname)
}
