package zone

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"akamaidns/internal/dnswire"
)

// Store holds the set of zones a nameserver is authoritative for and routes
// each query name to its longest-match zone. It is safe for concurrent use.
type Store struct {
	// mu serializes writers (Update); readers never take it.
	mu sync.Mutex
	// set is the installed zone set: an immutable version, swapped whole by
	// each Update that installs or removes a zone. Every reader reads it.
	set           atomic.Pointer[zoneSet]
	shardRebuilds atomic.Uint64
	// viewRebuilds counts the zone versions installed, each with the view
	// compiled when it was made, monotonically; viewBytes is the footprint
	// of the installed zones. Both are moved by the zones themselves as
	// they are installed and leave — never by walking the store.
	viewRebuilds atomic.Uint64
	viewBytes    atomic.Int64
}

// routerShards is the power-of-two shard count for the longest-match index.
// At 10^6 zones each shard holds ~4k origins, so a dirty-shard republish
// copies thousands of entries instead of millions.
const (
	routerShardBits = 8
	routerShards    = 1 << routerShardBits
	routerShardMask = routerShards - 1
)

// zoneSet is one version of the installed zone set. It indexes the zones by
// the wire form of their origin, split into routerShards maps keyed by an
// FNV-1a hash of the full origin key, and carries the set's ordinal, zone
// count and serial sum. A set and every shard map are immutable once
// published: Update clones only the dirty shards into the next set and
// swaps it in one atomic store, so a reader never sees a half-applied batch.
// Unused shards stay nil (a nil map reads as empty). The serial map and the
// origin list are derived once per set, by their first reader.
type zoneSet struct {
	shards [routerShards]map[string]*Zone
	gen    uint64 // ordinal: the number of dirty Updates before this set
	n      int    // zone count
	sum    uint64 // SerialSum: mixSerial summed over the set

	serialsOnce sync.Once
	serials     map[dnswire.Name]uint32
	// origins is the canonical-order origin list, built by the first Origins
	// call on this set: only listings need order, and the serial audits that
	// run on every set must not pay for the sort.
	originsOnce sync.Once
	origins     []dnswire.Name
}

// get is the exact probe: the zone whose wire-form origin is key, or nil.
func (zs *zoneSet) get(key []byte) *Zone {
	return zs.shards[shardIndex(key)][string(key)]
}

// each calls fn for every zone of the set, in no particular order.
func (zs *zoneSet) each(fn func(*Zone)) {
	for _, m := range &zs.shards {
		for _, z := range m {
			fn(z)
		}
	}
}

// fnvOffset is FNV-1a's 64-bit offset basis: the hash of nothing.
const fnvOffset = 14695981039346656037

// fnv1a extends the FNV-1a hash h over a key in either of its two
// spellings. The []byte instantiation keeps FindWire allocation-free:
// converting a suffix to a string for a plain argument would copy it, while
// m[string(b)] map probes do not.
func fnv1a[K string | []byte](h uint64, k K) uint64 {
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= 1099511628211
	}
	return h
}

// shardIndex hashes the entire origin key (not just the TLD-side label):
// real and synthetic fleets cluster under shared parent suffixes, and
// hashing only the trailing label would collapse them into one shard.
func shardIndex[K string | []byte](k K) int {
	return int(fnv1a(fnvOffset, k) & routerShardMask)
}

// publishLocked publishes the set that follows prev once the batch's
// overlay is applied: dirty shards are cloned and patched, clean shards
// carry their map pointers over untouched, the count and the serial sum are
// patched per dirty origin, and the new set becomes visible in a single
// atomic swap. Cost is O(dirty origins + size of dirty shards), independent
// of the total zone count. Callers hold s.mu.
func (s *Store) publishLocked(prev *zoneSet, overlay map[dnswire.Name]*Zone) {
	next := &zoneSet{shards: prev.shards, gen: prev.gen + 1, n: prev.n, sum: prev.sum}

	type patch struct {
		key string
		z   *Zone // nil: delete key from the shard
	}
	patches := make(map[int][]patch, 1)
	for o, z := range overlay {
		var key string
		if z != nil {
			key = z.view.originWire
		} else {
			key = string(o.AppendWire(nil))
		}
		si := shardIndex(key)
		if old := prev.shards[si][key]; old != nil {
			next.n--
			next.sum -= mixSerial(o, old.Serial())
		}
		if z != nil {
			next.n++
			next.sum += mixSerial(o, z.Serial())
		}
		patches[si] = append(patches[si], patch{key, z})
	}
	for si, ps := range patches {
		old := prev.shards[si]
		m := make(map[string]*Zone, len(old)+len(ps))
		for k, v := range old {
			m[k] = v
		}
		for _, p := range ps {
			if p.z != nil {
				m[p.key] = p.z
			} else {
				delete(m, p.key)
			}
		}
		next.shards[si] = m
	}
	s.set.Store(next)
	s.shardRebuilds.Add(uint64(len(patches)))
}

// ShardRebuilds reports the total number of shard maps cloned across all
// set republishes. ShardRebuilds/Gen is the average dirty-shard width per
// batch; callers diff before/after an apply to histogram it.
func (s *Store) ShardRebuilds() uint64 { return s.shardRebuilds.Load() }

// RouterShards reports the fixed shard count of the routing index.
func (s *Store) RouterShards() int { return routerShards }

// ViewRebuilds reports how many compiled views — zone versions, each
// compiled when it was made — have been installed in the store. It is a
// total: replacing or deleting a zone never lowers it.
func (s *Store) ViewRebuilds() uint64 { return s.viewRebuilds.Load() }

// ViewBytes reports the heap footprint of the installed zones: each is its
// compiled view (header and slab).
func (s *Store) ViewBytes() int64 { return s.viewBytes.Load() }

// NewStore returns an empty zone store.
func NewStore() *Store {
	s := &Store{}
	s.set.Store(&zoneSet{})
	return s
}

// Gen returns the ordinal of the installed set: it advances once per
// Update that installs or removes a zone, and nowhere else. A listing of
// the whole set is current only while Gen is unchanged.
func (s *Store) Gen() uint64 { return s.set.Load().gen }

// Tx batches zone installs and removals under the store's writer lock:
// every mutation made inside a single Update call becomes visible together,
// in exactly one set republish for the whole batch instead of one per zone.
// The Tx keeps the batch's changes in an overlay over the installed set, so
// the republish clones only the router shards the changed origins hash
// into — apply cost is O(change), not O(store). A Tx is only valid inside
// the Update callback that provided it.
type Tx struct {
	s    *Store
	base *zoneSet
	// overlay holds every origin the batch touched: its zone as of now in
	// the batch, nil when the batch deleted it.
	overlay map[dnswire.Name]*Zone
}

// Put installs (or replaces) a zone within the batch.
func (tx *Tx) Put(z *Zone) {
	if old := tx.Get(z.Origin()); old != nil && old != z {
		old.setStore(nil)
	}
	z.setStore(tx.s)
	tx.overlay[z.Origin()] = z
}

// Delete removes the zone with the given origin within the batch, reporting
// whether it existed.
func (tx *Tx) Delete(origin dnswire.Name) bool {
	z := tx.Get(origin)
	if z == nil {
		return false
	}
	z.setStore(nil)
	tx.overlay[origin] = nil
	return true
}

// Get returns the currently installed zone for origin (including zones
// installed earlier in this same batch), or nil.
func (tx *Tx) Get(origin dnswire.Name) *Zone {
	if z, ok := tx.overlay[origin]; ok {
		return z
	}
	var buf [256]byte
	return tx.base.get(origin.AppendWire(buf[:0]))
}

// Update runs fn against a batch transaction holding the writer lock. If fn
// changed anything, the next set is published once before the lock is
// released — the debounce that turns an N-zone apply into a single
// republish. Readers keep routing on the old set until the swap publishes,
// so a batch is atomic: no reader ever observes a half-applied zone set.
func (s *Store) Update(fn func(tx *Tx)) {
	s.mu.Lock()
	tx := &Tx{s: s, base: s.set.Load(), overlay: make(map[dnswire.Name]*Zone)}
	fn(tx)
	if len(tx.overlay) > 0 {
		s.publishLocked(tx.base, tx.overlay)
	}
	s.mu.Unlock()
}

// Put installs (or replaces) a zone. A single-zone batch:
// use Update to install many zones with one republish.
func (s *Store) Put(z *Zone) {
	s.Update(func(tx *Tx) { tx.Put(z) })
}

// Delete removes the zone with the given origin, reporting whether it
// existed. A single-zone batch: use Update to remove many zones with one
// republish.
func (s *Store) Delete(origin dnswire.Name) (ok bool) {
	s.Update(func(tx *Tx) { ok = tx.Delete(origin) })
	return ok
}

// Get returns the zone with exactly the given origin, or nil: one probe of
// the installed set, rendered into a stack buffer as Find renders.
func (s *Store) Get(origin dnswire.Name) *Zone {
	var buf [256]byte
	return s.set.Load().get(origin.AppendWire(buf[:0]))
}

// Find returns the zone with the longest origin that is an ancestor of (or
// equal to) name, or nil when the server is not authoritative for name. A
// Name is already canonical lower-case, so its wire rendering — into a stack
// buffer sized for the longest legal name — is exactly the folded form
// FindWire routes on.
func (s *Store) Find(name dnswire.Name) *Zone {
	var buf [256]byte
	z, _, _ := s.FindWire(name.AppendWire(buf[:0]))
	return z
}

// FindWire is Find for a folded wire-form query name: it returns the
// longest-match zone plus the byte offset within qname where that zone's
// origin starts (so the caller can point record owners at the origin bytes
// already present in the question). It walks the name's label suffixes
// against the lock-free router index, so cost is O(labels) hash+probe
// operations regardless of how many zones are installed. Allocation-free.
func (s *Store) FindWire(qname []byte) (*Zone, int, bool) {
	r := s.set.Load()
	for o := 0; o < len(qname); {
		suf := qname[o:]
		if z := r.shards[shardIndex(suf)][string(suf)]; z != nil {
			return z, o, true
		}
		if qname[o] == 0 {
			break
		}
		o += 1 + int(qname[o])
	}
	return nil, 0, false
}

// mixSerial hashes one (origin, serial) pair into a 64-bit summand. The
// per-zone hashes are combined by addition, making SerialSum independent of
// iteration order and patchable per changed zone; the splitmix64 finalizer
// keeps near-identical pairs from producing correlated summands.
func mixSerial(o dnswire.Name, serial uint32) uint64 {
	h := fnv1a(fnvOffset, o.String())
	h ^= uint64(serial) * 0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// Origins lists the zone origins in canonical order. The returned slice
// belongs to the installed set: treat it as read-only.
func (s *Store) Origins() []dnswire.Name {
	zs := s.set.Load()
	zs.originsOnce.Do(func() {
		zs.origins = make([]dnswire.Name, 0, zs.n)
		zs.each(func(z *Zone) { zs.origins = append(zs.origins, z.Origin()) })
		slices.SortFunc(zs.origins, dnswire.Name.Compare)
	})
	return zs.origins
}

// Each calls fn for every zone of the installed set, in no particular
// order, without copying the set. fn must not update the store.
func (s *Store) Each(fn func(*Zone)) { s.set.Load().each(fn) }

// Serials maps every zone's origin to its SOA serial. It is built once per
// installed set, by its first caller: the controller's catalog
// (propagate.Source), which every pull cycle sends whole, /debug/views, and
// the propagation audits (the chaos harness's zone-stall invariants,
// cmd/churn -pull). An edge compares a catalog with Get and Each instead,
// so it never builds one. The returned map belongs to the installed set:
// treat it as read-only and copy before mutating.
func (s *Store) Serials() map[dnswire.Name]uint32 {
	zs := s.set.Load()
	zs.serialsOnce.Do(func() {
		zs.serials = make(map[dnswire.Name]uint32, zs.n)
		zs.each(func(z *Zone) { zs.serials[z.Origin()] = z.Serial() })
	})
	return zs.serials
}

// SerialSum returns an order-independent hash over every (origin, serial)
// pair. Two stores with equal sums almost certainly hold identical serial
// maps; unequal sums definitely differ. It is a field of the installed set,
// patched per changed zone by each Update, so convergence sweeps compare
// sums in O(1).
func (s *Store) SerialSum() uint64 { return s.set.Load().sum }

// Len reports the number of zones.
func (s *Store) Len() int { return s.set.Load().n }

// Transfer is Zone.Transfer for the zone at origin, nil when the store
// holds none.
func (s *Store) Transfer(origin dnswire.Name) []dnswire.RR {
	if z := s.Get(origin); z != nil {
		return z.Transfer()
	}
	return nil
}

// Transfer produces the zone's AXFR-style record stream: SOA, all other
// records, SOA again (RFC 5936 framing), every record decoded afresh from
// the zone's arena and the caller's own. Returns nil when the zone has no
// SOA.
func (z *Zone) Transfer() []dnswire.RR {
	soa := z.SOA()
	if soa == nil {
		return nil
	}
	return append(z.AllRecords(), soa)
}

// FromTransfer reassembles a zone from an AXFR-style stream, validating
// the SOA framing, without installing it anywhere: callers Put it, the
// propagation plane once it has verified the content. The zone packs the
// stream's records and keeps none of them, so the caller may reuse or
// modify them afterwards.
func FromTransfer(origin dnswire.Name, recs []dnswire.RR) (*Zone, error) {
	if len(recs) < 2 {
		return nil, errBadTransfer
	}
	first, okF := recs[0].(*dnswire.SOA)
	last, okL := recs[len(recs)-1].(*dnswire.SOA)
	if !okF || !okL || first.Serial != last.Serial || first.Name != origin {
		return nil, errBadTransfer
	}
	sc := getScratch()
	defer putScratch(sc)
	for _, rr := range recs[:len(recs)-1] {
		if err := sc.add(origin, rr); err != nil {
			return nil, err
		}
	}
	return sc.zone(origin), nil
}

var errBadTransfer = errors.New("zone: malformed transfer stream")
