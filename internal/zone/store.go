package zone

import (
	"sort"
	"sync"
	"sync/atomic"

	"akamaidns/internal/dnswire"
)

// Store holds the set of zones a nameserver is authoritative for and routes
// each query name to its longest-match zone. It is safe for concurrent use.
type Store struct {
	mu    sync.RWMutex
	zones map[dnswire.Name]*Zone
	// gen advances once per Update that installs or removes a zone, and
	// nowhere else: an installed zone is a published version that never
	// changes, so a swap is the only change a store sees. Caches keyed on
	// store contents compare generations instead of watching zones.
	gen atomic.Uint64
	// router is the immutable longest-match index, sharded by an FNV hash of
	// the wire-form origin so an Update republishes only the shards its batch
	// dirtied. Find/FindWire take no locks on the serve path.
	router         atomic.Pointer[routerView]
	routerRebuilds atomic.Uint64
	shardRebuilds  atomic.Uint64
	// snap caches the generation-keyed Serials/Origins/SerialSum snapshot so
	// invariant checks at large N stop serializing against writers.
	snap atomic.Pointer[storeSnap]
	// viewRebuilds counts view compiles of installed zones, monotonically;
	// viewBytes is the footprint of the views currently published by
	// installed zones. Both are moved by the zones themselves as they
	// compile, install and leave — never by walking the store.
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

// routerView indexes the installed zones by the wire form of their origin,
// split into routerShards maps keyed by an FNV-1a hash of the full origin
// key. The view and every shard map are immutable once published: Update
// clones only the dirty shards and swaps the whole view in one atomic store,
// so a reader never sees a half-applied batch. Unused shards stay nil (a nil
// map reads as empty).
type routerView struct {
	shards [routerShards]map[string]*Zone
}

// fnv1a hashes a key in either of its two spellings. The []byte
// instantiation keeps FindWire allocation-free: converting a suffix to a
// string for a plain argument would copy it, while m[string(b)] map probes
// do not.
func fnv1a[K string | []byte](k K) uint64 {
	h := uint64(14695981039346656037)
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
	return int(fnv1a(k) & routerShardMask)
}

// publishDirtyLocked publishes a router snapshot covering the origins
// changed in one batch: dirty shards are cloned and patched, clean shards
// carry their map pointers over untouched, and the new view becomes visible
// in a single atomic swap. Cost is O(dirty origins + size of dirty shards),
// independent of the total zone count. Callers hold s.mu.
func (s *Store) publishDirtyLocked(dirty map[dnswire.Name]struct{}) {
	prev := s.router.Load()
	next := *prev // copy the shard pointer array; shard maps are shared

	type patch struct {
		key string
		z   *Zone // nil: delete key from the shard
	}
	patches := make(map[int][]patch, 1)
	for o := range dirty {
		z := s.zones[o] // nil when the batch deleted the zone
		var key string
		if z != nil {
			key = z.originWire
		} else {
			key = string(o.AppendWire(nil))
		}
		si := shardIndex(key)
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
	s.router.Store(&next)
	s.routerRebuilds.Add(1)
	s.shardRebuilds.Add(uint64(len(patches)))
}

// RouterRebuilds reports how many batches have republished the routing index
// (one per dirty Update, regardless of how many shards the batch touched).
func (s *Store) RouterRebuilds() uint64 { return s.routerRebuilds.Load() }

// ShardRebuilds reports the total number of shard maps cloned across all
// router republishes. ShardRebuilds/RouterRebuilds is the average dirty-shard
// width per batch; callers diff before/after an apply to histogram it.
func (s *Store) ShardRebuilds() uint64 { return s.shardRebuilds.Load() }

// RouterShards reports the fixed shard count of the routing index.
func (s *Store) RouterShards() int { return routerShards }

// ViewRebuilds reports how many views zones have compiled while installed
// in the store. It is a total: replacing or deleting a zone never lowers it.
func (s *Store) ViewRebuilds() uint64 { return s.viewRebuilds.Load() }

// ViewBytes reports the heap footprint of the compiled views the installed
// zones currently publish (arena, table and slabs; a zone whose view is
// not yet compiled contributes nothing).
func (s *Store) ViewBytes() int64 { return s.viewBytes.Load() }

// NewStore returns an empty zone store.
func NewStore() *Store {
	s := &Store{zones: make(map[dnswire.Name]*Zone)}
	s.router.Store(&routerView{})
	return s
}

// Gen returns the store's change generation (see Store.gen). A cached
// artifact derived from the store is valid only while Gen is unchanged.
func (s *Store) Gen() uint64 { return s.gen.Load() }

// Tx batches zone installs and removals under one store lock: every
// mutation made inside a single Update call becomes visible together, with
// exactly one router republish and one generation bump for the whole batch
// instead of one per zone. The Tx tracks which origins the batch dirtied so
// the republish clones only the router shards those origins hash into —
// apply cost is O(change), not O(store). A Tx is only valid inside the
// Update callback that provided it.
type Tx struct {
	s     *Store
	dirty map[dnswire.Name]struct{}
}

// Put installs (or replaces) a zone within the batch and publishes it: from
// here on the zone never changes.
func (tx *Tx) Put(z *Zone) {
	if old := tx.s.zones[z.Origin()]; old != nil && old != z {
		old.setStore(nil)
	}
	z.publish()
	z.setStore(tx.s)
	tx.s.zones[z.Origin()] = z
	tx.dirty[z.Origin()] = struct{}{}
}

// Delete removes the zone with the given origin within the batch, reporting
// whether it existed.
func (tx *Tx) Delete(origin dnswire.Name) bool {
	z, ok := tx.s.zones[origin]
	if !ok {
		return false
	}
	delete(tx.s.zones, origin)
	z.setStore(nil)
	tx.dirty[origin] = struct{}{}
	return true
}

// Get returns the currently installed zone for origin (including zones
// installed earlier in this same batch), or nil.
func (tx *Tx) Get(origin dnswire.Name) *Zone { return tx.s.zones[origin] }

// Len reports the number of installed zones as of this point in the batch.
func (tx *Tx) Len() int { return len(tx.s.zones) }

// Update runs fn against a batch transaction holding the store lock. If fn
// mutated anything, the dirty router shards are republished once and the
// generation bumped once before the lock is released — the debounce that
// turns an N-zone apply into a single republish. Lock-free readers
// (Find/FindWire) keep routing on the old snapshot until the swap publishes,
// so a batch is atomic with respect to the router: no reader ever observes a
// half-applied zone set.
func (s *Store) Update(fn func(tx *Tx)) {
	tx := &Tx{s: s, dirty: make(map[dnswire.Name]struct{})}
	s.mu.Lock()
	fn(tx)
	if len(tx.dirty) > 0 {
		s.publishDirtyLocked(tx.dirty)
		// The generation's one writer, inside the lock: generation-keyed
		// snapshots read gen under RLock, so gen and content move together.
		s.gen.Add(1)
	}
	s.mu.Unlock()
}

// Put installs (or replaces) a zone and publishes it. A single-zone batch:
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

// Get returns the zone with exactly the given origin, or nil.
func (s *Store) Get(origin dnswire.Name) *Zone {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.zones[origin]
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
	r := s.router.Load()
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

// storeSnap is an immutable, generation-keyed snapshot of the store's
// origin/serial state. Serials and Origins hand out the snapshot's shared
// map/slice directly — callers own a read-only view and must not mutate it.
type storeSnap struct {
	gen     uint64
	serials map[dnswire.Name]uint32
	sum     uint64
	// origins is the canonical-order origin list, built by the first
	// Origins call on this snapshot: only listings need order, and the
	// serial audits that run on every generation must not pay for the sort.
	originsOnce sync.Once
	origins     []dnswire.Name
}

// snapshot returns the current generation's snapshot, building it at most
// once per generation. Repeated invariant sweeps (chaos checks every event)
// hit the cached pointer and never touch the store lock.
func (s *Store) snapshot() *storeSnap {
	if sn := s.snap.Load(); sn != nil && sn.gen == s.gen.Load() {
		return sn
	}
	// Under RLock no Update runs, and installed zones never change, so gen
	// and content are read together.
	s.mu.RLock()
	sn := &storeSnap{
		gen:     s.gen.Load(),
		serials: make(map[dnswire.Name]uint32, len(s.zones)),
	}
	for o, z := range s.zones {
		ser := z.Serial()
		sn.serials[o] = ser
		sn.sum += mixSerial(o, ser)
	}
	s.mu.RUnlock()
	s.snap.Store(sn)
	return sn
}

// mixSerial hashes one (origin, serial) pair into a 64-bit summand. The
// per-zone hashes are combined by addition, making SerialSum independent of
// iteration order; the splitmix64 finalizer keeps near-identical pairs from
// producing correlated summands.
func mixSerial(o dnswire.Name, serial uint32) uint64 {
	h := fnv1a(o.String())
	h ^= uint64(serial) * 0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// Origins lists the zone origins in canonical order. The returned slice is a
// shared generation-keyed snapshot: treat it as read-only.
func (s *Store) Origins() []dnswire.Name {
	sn := s.snapshot()
	sn.originsOnce.Do(func() {
		sn.origins = make([]dnswire.Name, 0, len(sn.serials))
		for o := range sn.serials {
			sn.origins = append(sn.origins, o)
		}
		sort.Slice(sn.origins, func(i, j int) bool { return sn.origins[i].Compare(sn.origins[j]) < 0 })
	})
	return sn.origins
}

// Serials snapshots every zone's SOA serial, keyed by origin. Callers that
// audit propagation (the chaos harness's zone-stall invariants, soak
// summaries) compare snapshots instead of holding zone references. The
// returned map is a shared generation-keyed snapshot: treat it as read-only
// and copy before mutating.
func (s *Store) Serials() map[dnswire.Name]uint32 {
	return s.snapshot().serials
}

// SerialSum returns an order-independent hash over every (origin, serial)
// pair. Two stores with equal sums almost certainly hold identical serial
// maps; unequal sums definitely differ. Convergence sweeps compare sums in
// O(1) off the snapshot cache instead of diffing N-entry maps per check.
func (s *Store) SerialSum() uint64 {
	return s.snapshot().sum
}

// Len reports the number of zones.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.zones)
}

// Transfer produces an AXFR-style record stream for the zone at origin:
// SOA, all other records, SOA again (RFC 5936 framing). Returns nil when
// the zone does not exist or has no SOA. The full-slice expression pins the
// append to a fresh backing array, so the trailing SOA can never scribble
// into spare capacity owned by AllRecords' snapshot (the ownership contract
// TestTransferOwnership asserts).
func (s *Store) Transfer(origin dnswire.Name) []dnswire.RR {
	z := s.Get(origin)
	if z == nil {
		return nil
	}
	soa := z.SOA()
	if soa == nil {
		return nil
	}
	recs := z.AllRecords()
	return append(recs[:len(recs):len(recs)], soa)
}

// FromTransfer reassembles a zone from an AXFR-style stream, validating
// the SOA framing, without installing it anywhere: callers Put it, the
// propagation plane once it has verified the content. The caller hands the
// stream's records over:
// the zone keeps them, not copies, and serves them lock-free, so they must
// not be modified afterwards (handing one unmodified stream to two zones is
// fine — a zone never writes through a record). Store.Transfer's stream is
// the caller's own and may be handed straight on.
func FromTransfer(origin dnswire.Name, recs []dnswire.RR) (*Zone, error) {
	if len(recs) < 2 {
		return nil, errBadTransfer
	}
	first, okF := recs[0].(*dnswire.SOA)
	last, okL := recs[len(recs)-1].(*dnswire.SOA)
	if !okF || !okL || first.Serial != last.Serial || first.Name != origin {
		return nil, errBadTransfer
	}
	z := New(origin)
	for _, rr := range recs[:len(recs)-1] {
		if err := z.add(rr); err != nil {
			return nil, err
		}
	}
	return z, nil
}

var errBadTransfer = errSentinel("zone: malformed transfer stream")

type errSentinel string

func (e errSentinel) Error() string { return string(e) }
