package nameserver

import (
	"bytes"
	"hash/maphash"
	"math/rand/v2"
	"sync/atomic"

	"akamaidns/internal/dnswire"
)

// HotCache is the packed-response cache behind the UDP fast path: for
// queries whose answers are identical for every client (no tailoring, no
// ECS, no cookies), the fitted wire bytes of a previous response are kept
// keyed on (case-folded qname, qtype, qclass, payload size class) and
// replayed with only the ID, RD bit, and qname casing patched.
//
// A cache has one owner — a UDP read loop — and no lock: only the owner
// calls Lookup and Insert. Entries live in a slab of slots whose key and
// wire buffers grow on demand and are rewritten in place when the slot is
// recycled, so once the cache is full an insert allocates nothing. The index
// is an open-addressed table of slot numbers keyed by a hash of the key
// bytes, with backward-shift deletion: a Go map under the same steady
// delete/insert churn keeps allocating, as it reclaims deleted slots only by
// growing. The counters are atomics the owner writes and anyone may read
// (scrapes sum them across workers).
//
// One invalidation rule: an entry is filed under the version of the zone
// whose data produced its bytes, and is served only while the zone that
// routes its name has that version.
type HotCache struct {
	max   int
	seed  maphash.Seed
	slots []hotSlot
	// index holds slot number + 1 per position (0 = empty), linear probing
	// from the key hash; its length is a power of two at least twice the
	// live slot count.
	index []int32

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	entries   atomic.Int64
}

// hotSlot is one entry of the slab: the entry, its key, the key's hash and
// the zone version it is filed under. Recycling a slot keeps the capacity of
// its Wire and key buffers.
type hotSlot struct {
	HotEntry
	key     []byte
	hash    uint64
	version uint64
}

// HotEntry is one cached packed response plus the metadata the fast path
// needs to keep metrics and pipeline scoring identical to the slow path.
type HotEntry struct {
	// Wire is the full packed response, already fitted to the size class's
	// payload floor. Bytes 0-1 (ID), the RD bit in byte 2, and the qname
	// region are patched per-hit into the caller's send buffer; the entry
	// itself is never written by a hit.
	Wire []byte
	// QnameLen is the question name's wire length (terminal zero included),
	// so hits can restore the client's 0x20 mixed-case spelling.
	QnameLen int
	// Name and Zone feed the scoring pipeline on hits without re-parsing.
	Name dnswire.Name
	Zone dnswire.Name
	// RCode drives the per-rcode server counters.
	RCode dnswire.RCode
}

// DefaultHotCacheSize bounds the cache when the caller does not.
const DefaultHotCacheSize = 4096

// NewHotCache builds a cache holding at most max packed responses
// (DefaultHotCacheSize when max <= 0). Nothing is allocated up front.
func NewHotCache(max int) *HotCache {
	if max <= 0 {
		max = DefaultHotCacheSize
	}
	return &HotCache{max: max, seed: maphash.MakeSeed()}
}

// Lookup returns the entry for key filed under version — the version of the
// zone that routes the key's name now. The entry stays valid until the
// owner's next Insert.
func (c *HotCache) Lookup(key []byte, version uint64) (*HotEntry, bool) {
	if _, slot := c.find(maphash.Bytes(c.seed, key), key); slot >= 0 && c.slots[slot].version == version {
		c.hits.Add(1)
		return &c.slots[slot].HotEntry, true
	}
	c.misses.Add(1)
	return nil, false
}

// Insert stores a copy of e filed under version, the version of the zone
// whose data produced it. It replaces the entry under the same key — an
// eviction when that entry was of another version — and a full cache
// recycles a slot picked at random, evicting its entry.
func (c *HotCache) Insert(key []byte, e *HotEntry, version uint64) {
	h := maphash.Bytes(c.seed, key)
	_, slot := c.find(h, key)
	switch {
	case slot >= 0:
		// Same key: overwrite in place.
		if c.slots[slot].version != version {
			c.evictions.Add(1)
		}
	case len(c.slots) < c.max:
		slot = len(c.slots)
		c.slots = append(c.slots, hotSlot{})
		if 2*len(c.slots) > len(c.index) {
			c.grow()
		}
		c.place(h, slot)
	default:
		// Random replacement, as a hot cache whose working set is far below
		// max in steady state needs nothing smarter.
		slot = rand.IntN(len(c.slots))
		pos, _ := c.find(c.slots[slot].hash, c.slots[slot].key)
		c.unplace(pos)
		c.place(h, slot)
		c.evictions.Add(1)
	}
	s := &c.slots[slot]
	s.key = append(s.key[:0], key...)
	s.hash, s.version = h, version
	s.HotEntry = HotEntry{
		Wire:     append(s.Wire[:0], e.Wire...),
		QnameLen: e.QnameLen,
		Name:     e.Name,
		Zone:     e.Zone,
		RCode:    e.RCode,
	}
	c.entries.Store(int64(len(c.slots)))
}

// find returns the index position and slot holding key, or slot -1.
func (c *HotCache) find(h uint64, key []byte) (pos, slot int) {
	if len(c.index) == 0 {
		return 0, -1
	}
	mask := len(c.index) - 1
	for pos = int(h) & mask; c.index[pos] != 0; pos = (pos + 1) & mask {
		s := &c.slots[c.index[pos]-1]
		if s.hash == h && bytes.Equal(s.key, key) {
			return pos, int(c.index[pos] - 1)
		}
	}
	return pos, -1
}

// place indexes slot under hash h.
func (c *HotCache) place(h uint64, slot int) {
	mask := len(c.index) - 1
	pos := int(h) & mask
	for c.index[pos] != 0 {
		pos = (pos + 1) & mask
	}
	c.index[pos] = int32(slot + 1)
}

// unplace empties index position pos, shifting later members of its probe
// run back so every entry stays reachable from its home position.
func (c *HotCache) unplace(pos int) {
	mask := len(c.index) - 1
	for next := (pos + 1) & mask; c.index[next] != 0; next = (next + 1) & mask {
		home := int(c.slots[c.index[next]-1].hash) & mask
		// The entry at next may move to pos unless its home lies cyclically
		// in (pos, next].
		if (next-home)&mask >= (next-pos)&mask {
			c.index[pos] = c.index[next]
			pos = next
		}
	}
	c.index[pos] = 0
}

// grow doubles the index and re-places every slot but the last, which the
// caller is filling.
func (c *HotCache) grow() {
	c.index = make([]int32, max(16, 2*len(c.index)))
	for i := range c.slots[:len(c.slots)-1] {
		c.place(c.slots[i].hash, i)
	}
}

// Len reports the current entry count. Safe from any goroutine.
func (c *HotCache) Len() int { return int(c.entries.Load()) }

// Stats returns cumulative hit/miss/eviction counts. Safe from any
// goroutine.
func (c *HotCache) Stats() (hits, misses, evictions uint64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
