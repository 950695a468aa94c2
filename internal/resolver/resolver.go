package resolver

import (
	"fmt"
	"math/rand"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/simtime"
)

// Transport carries a query to an authoritative server address and delivers
// the response asynchronously (or never, on loss). Implementations exist
// over netsim (simulation) and over UDP (cmd/dnsq).
type Transport interface {
	// Send issues q toward the server; done is invoked at most once with
	// the response.
	Send(now simtime.Time, server string, q *dnswire.Message, done func(now simtime.Time, resp *dnswire.Message))
}

// Config names the resolver.
type Config struct {
	ID string
}

// DefaultConfig returns the configuration of resolver id.
func DefaultConfig(id string) Config {
	return Config{ID: id}
}

// Every resolver's behaviour, that of a common resolver (§5.2): it picks
// among a zone's delegations uniformly at random.
const (
	// timeout bounds one upstream try before the next server is asked.
	timeout = 800 * time.Millisecond
	// maxRetries bounds the upstream tries per resolution, across servers.
	maxRetries = 6
	// negativeTTLCap bounds negative caching.
	negativeTTLCap uint32 = 300
)

// Hint is one root/authority hint: a zone, its nameserver name, and the
// server address key the transport understands.
type Hint struct {
	Zone   dnswire.Name
	NSName dnswire.Name
	Server string
}

// Result is a completed resolution.
type Result struct {
	RCode   dnswire.RCode
	Answers []dnswire.RR
	// Queries is how many queries were sent upstream (0 = pure cache hit).
	Queries int
	// Err is non-nil on total failure (all retries timed out).
	Err error
	// Elapsed is resolution latency.
	Elapsed time.Duration
}

// Resolver is a caching iterative resolver.
type Resolver struct {
	Cfg   Config
	Cache *Cache
	sched *simtime.Scheduler
	trans Transport
	rng   *rand.Rand
	hints []Hint
	// Sent counts upstream queries; Timeouts counts per-try timeouts.
	Sent, Timeouts uint64
	nextID         uint16
}

// New creates a resolver over the transport with the given authority hints.
func New(sched *simtime.Scheduler, cfg Config, trans Transport, hints []Hint, rng *rand.Rand) *Resolver {
	return &Resolver{
		Cfg: cfg, Cache: NewCache(), sched: sched, trans: trans,
		rng: rng, hints: hints,
	}
}

// Resolve answers (name, typ), driving the iterative algorithm, and calls
// done exactly once.
func (r *Resolver) Resolve(now simtime.Time, name dnswire.Name, typ dnswire.Type, done func(Result)) {
	st := &resolution{r: r, qname: name, qtype: typ, start: now, done: done}
	st.step(now, name, 0)
}

// resolution is one in-flight client resolution.
type resolution struct {
	r        *Resolver
	qname    dnswire.Name
	qtype    dnswire.Type
	start    simtime.Time
	done     func(Result)
	queries  int
	retries  int
	finished bool
	// chain guards against CNAME loops.
	chainLen int
}

func (st *resolution) finish(now simtime.Time, res Result) {
	if st.finished {
		return
	}
	st.finished = true
	res.Queries = st.queries
	res.Elapsed = now.Sub(st.start)
	st.done(res)
}

// step resolves `name` (the current target after CNAME rewrites).
func (st *resolution) step(now simtime.Time, name dnswire.Name, depth int) {
	if st.finished {
		return
	}
	if depth > 16 {
		st.finish(now, Result{Err: fmt.Errorf("resolver: resolution too deep")})
		return
	}
	// Cache: direct answer?
	if rrs, neg, negRC, ok := st.r.Cache.Get(now, name, st.qtype); ok {
		if neg {
			st.finish(now, Result{RCode: negRC})
			return
		}
		st.finish(now, Result{RCode: dnswire.RCodeNoError, Answers: rrs})
		return
	}
	// Cached CNAME?
	if rrs, neg, _, ok := st.r.Cache.Get(now, name, dnswire.TypeCNAME); ok && !neg && st.qtype != dnswire.TypeCNAME {
		if cn, isCN := rrs[0].(*dnswire.CNAME); isCN {
			st.chainLen++
			if st.chainLen > 8 {
				st.finish(now, Result{Err: fmt.Errorf("resolver: CNAME chain too long")})
				return
			}
			st.step(now, cn.Target, depth+1)
			return
		}
	}
	// Find the closest enclosing zone with known servers.
	servers := st.r.knownServers(now, name)
	if len(servers) == 0 {
		st.finish(now, Result{Err: fmt.Errorf("resolver: no servers for %s", name)})
		return
	}
	st.ask(now, name, servers, depth, 0)
}

// knownServers walks from `name` towards the root collecting the best
// cached NS set (with usable addresses) or the static hints.
func (r *Resolver) knownServers(now simtime.Time, name dnswire.Name) []string {
	for zone := name; ; zone = zone.Parent() {
		if rrs, neg, _, ok := r.Cache.Get(now, zone, dnswire.TypeNS); ok && !neg {
			var servers []string
			for _, rr := range rrs {
				ns, isNS := rr.(*dnswire.NS)
				if !isNS {
					continue
				}
				// Address via cached glue.
				if addrs, negA, _, okA := r.Cache.Get(now, ns.Target, dnswire.TypeA); okA && !negA {
					for _, arr := range addrs {
						if a, isA := arr.(*dnswire.A); isA {
							servers = append(servers, a.Addr.String())
						}
					}
				}
			}
			if len(servers) > 0 {
				return servers
			}
		}
		// Hints for this zone?
		var servers []string
		for _, h := range r.hints {
			if h.Zone == zone {
				servers = append(servers, h.Server)
			}
		}
		if len(servers) > 0 {
			return servers
		}
		if zone.IsRoot() {
			return nil
		}
	}
}

// pick returns the try-th choice among servers, starting from a uniformly
// random one.
func (r *Resolver) pick(servers []string, try int) string {
	return servers[(r.rng.Intn(len(servers))+try)%len(servers)]
}

// ask sends the query to one server with timeout/retry.
func (st *resolution) ask(now simtime.Time, name dnswire.Name, servers []string, depth, try int) {
	if st.finished {
		return
	}
	if st.retries >= maxRetries {
		st.finish(now, Result{Err: fmt.Errorf("resolver: retries exhausted for %s", name)})
		return
	}
	server := st.r.pick(servers, try)
	st.r.nextID++
	q := dnswire.NewQuery(st.r.nextID, name, st.qtype)
	st.queries++
	st.retries++
	st.r.Sent++
	answered := false
	st.r.trans.Send(now, server, q, func(tnow simtime.Time, resp *dnswire.Message) {
		if answered || st.finished {
			return
		}
		answered = true
		st.handleResponse(tnow, name, resp, depth)
	})
	st.r.sched.After(timeout, func(tnow simtime.Time) {
		if answered || st.finished {
			return
		}
		answered = true // ignore late responses
		st.r.Timeouts++
		st.ask(tnow, name, servers, depth, try+1)
	})
}

func (st *resolution) handleResponse(now simtime.Time, name dnswire.Name, resp *dnswire.Message, depth int) {
	r := st.r
	switch {
	case resp.RCode == dnswire.RCodeNXDomain:
		ttl := negativeTTLCap
		if soa := negativeSOA(resp); soa != nil && soa.Minimum < ttl {
			ttl = soa.Minimum
		}
		r.Cache.PutNegative(now, name, st.qtype, ttl, dnswire.RCodeNXDomain)
		st.finish(now, Result{RCode: dnswire.RCodeNXDomain})
		return
	case resp.RCode != dnswire.RCodeNoError:
		st.finish(now, Result{RCode: resp.RCode})
		return
	}
	if len(resp.Answers) > 0 {
		// Cache answer RRsets by (owner, type).
		byKey := map[cacheKey][]dnswire.RR{}
		for _, rr := range resp.Answers {
			h := rr.Header()
			k := cacheKey{h.Name, h.Type}
			byKey[k] = append(byKey[k], rr)
		}
		for k, rrs := range byKey {
			r.Cache.Put(now, k.name, k.typ, rrs)
		}
		// Terminal answer for our qtype?
		var answers []dnswire.RR
		target := name
		for hops := 0; hops < 12; hops++ {
			if rrs := byKey[cacheKey{target, st.qtype}]; len(rrs) > 0 {
				answers = rrs
				break
			}
			if cns := byKey[cacheKey{target, dnswire.TypeCNAME}]; len(cns) > 0 {
				target = cns[0].(*dnswire.CNAME).Target
				continue
			}
			break
		}
		if len(answers) > 0 {
			st.finish(now, Result{RCode: dnswire.RCodeNoError, Answers: resp.Answers})
			return
		}
		// CNAME chain ended out-of-zone: continue from the top.
		if target != name {
			st.chainLen++
			if st.chainLen > 8 {
				st.finish(now, Result{Err: fmt.Errorf("resolver: CNAME chain too long")})
				return
			}
			st.step(now, target, depth+1)
			return
		}
	}
	// Referral?
	var nsOwner dnswire.Name
	var nsSet []dnswire.RR
	for _, rr := range resp.Authority {
		if ns, ok := rr.(*dnswire.NS); ok {
			nsOwner = ns.Name
			nsSet = append(nsSet, ns)
		}
	}
	if len(nsSet) > 0 {
		r.Cache.Put(now, nsOwner, dnswire.TypeNS, nsSet)
		// Glue.
		byName := map[dnswire.Name][]dnswire.RR{}
		for _, rr := range resp.Additional {
			if a, ok := rr.(*dnswire.A); ok {
				byName[a.Name] = append(byName[a.Name], a)
			}
		}
		for owner, rrs := range byName {
			r.Cache.Put(now, owner, dnswire.TypeA, rrs)
		}
		st.step(now, name, depth+1)
		return
	}
	// NODATA.
	ttl := negativeTTLCap
	if soa := negativeSOA(resp); soa != nil && soa.Minimum < ttl {
		ttl = soa.Minimum
	}
	r.Cache.PutNegative(now, name, st.qtype, ttl, dnswire.RCodeNoError)
	st.finish(now, Result{RCode: dnswire.RCodeNoError})
}

func negativeSOA(m *dnswire.Message) *dnswire.SOA {
	for _, rr := range m.Authority {
		if soa, ok := rr.(*dnswire.SOA); ok {
			return soa
		}
	}
	return nil
}
