package flight

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"akamaidns/internal/obs"
)

// Config tunes the recorder. The zero value takes the default, which is
// what the socket server ships with.
type Config struct {
	// SampleEvery is the head-sampling rate for normal-verdict records:
	// 1-in-N captured (default DefaultSampleEvery; 1 captures everything).
	// Anomalies are always captured regardless.
	SampleEvery int
}

// DefaultSampleEvery is the head-sampling period of the zero Config.
const DefaultSampleEvery = 16

// The recorder's fixed shape.
const (
	// numRings is the number of record rings. Workers are dealt rings
	// round-robin; two workers sharing a ring is safe, just noisier.
	numRings = 8
	// ringSize is the record capacity per ring.
	ringSize = 512
	// topKSlots is the heavy-hitter slot count per dimension.
	topKSlots = 32
	// latencyOutlier escalates a timed query to forced capture when its
	// handle latency meets or exceeds it.
	latencyOutlier = 25 * time.Millisecond
)

// rollKey indexes the per-(zone, rcode) rollup without building strings.
type rollKey struct {
	zone  string
	rcode uint8
}

// maxRollupSeries caps the (zone, rcode) series the rollup registers, the
// way the socket server's intern table and the rate limiter's buckets are
// capped: a platform hosts far more zones than a scrape should carry. Past
// the cap, a pair not yet registered counts into its rcode's zone="other"
// series.
const maxRollupSeries = 1 << 10

// Recorder owns the rings, the sketches, and the rollup. All methods are
// safe for concurrent use; the capture path allocates nothing in the
// steady state.
type Recorder struct {
	cfg   Config
	epoch time.Time
	reg   *obs.Registry

	rings []*ring
	next  atomic.Uint32 // round-robin worker ring assignment

	sampledC   *obs.Counter
	anomalousC *obs.Counter

	topSuffix   *TopK
	topQType    *TopK
	topResolver *TopK

	rollMu sync.RWMutex
	roll   map[rollKey]*obs.Counter
	// other holds, per rcode, the zone="other" series of pairs first seen
	// past maxRollupSeries.
	other [256]*obs.Counter
}

// New builds a recorder and registers its series on reg: the capture
// counters, the effective sampling-rate gauge, and (lazily, as traffic
// arrives) the per-(zone, rcode) rollup family.
func New(cfg Config, reg *obs.Registry) *Recorder {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	r := &Recorder{
		cfg:         cfg,
		epoch:       time.Now(),
		reg:         reg,
		rings:       make([]*ring, numRings),
		topSuffix:   NewTopK(topKSlots),
		topQType:    NewTopK(topKSlots),
		topResolver: NewTopK(topKSlots),
		roll:        make(map[rollKey]*obs.Counter),
	}
	for i := range r.rings {
		r.rings[i] = newRing(ringSize)
	}
	help := "Flight-recorder records captured, by capture reason."
	r.sampledC = reg.Counter(obs.MetricFlightRecordsTotal, help, "reason", "sampled")
	r.anomalousC = reg.Counter(obs.MetricFlightRecordsTotal, help, "reason", "anomalous")
	reg.GaugeFunc(obs.MetricFlightSampleEvery,
		"Head-sampling period for normal-verdict flight records (1-in-N).",
		func() float64 { return float64(cfg.SampleEvery) })
	return r
}

// SampleEvery reports the effective head-sampling period.
func (r *Recorder) SampleEvery() int { return r.cfg.SampleEvery }

// Epoch reports the recorder's start time (record When values are
// nanosecond offsets from it).
func (r *Recorder) Epoch() time.Time { return r.epoch }

// Recorded reports the total records ever captured.
func (r *Recorder) Recorded() uint64 {
	return r.sampledC.Load() + r.anomalousC.Load()
}

// Worker deals out a capture handle bound to one ring. Each serving
// worker (or pooled scratch) holds one for its lifetime; the handle
// carries the sampling counter and the fold buffer so Observe never
// allocates.
func (r *Recorder) Worker() *Worker {
	i := r.next.Add(1) - 1
	return &Worker{rec: r, ring: r.rings[int(i)%len(r.rings)]}
}

// Recorder reports which recorder a handle captures into, so a pooled
// owner can detect a handle left over from another recorder's server.
func (w *Worker) Recorder() *Recorder { return w.rec }

// Worker is a per-worker capture handle. Not safe for concurrent use —
// exactly like the scratch that owns it.
type Worker struct {
	rec  *Recorder
	ring *ring
	tick uint32
	// fold holds the case-folded dotted qname text between Observe's
	// parse and the record/sketch writes (a stack buffer would escape).
	fold [260]byte
}

// Observe applies the sampling decision to one sample and captures it if
// it qualifies. Zero allocations in the steady state.
func (w *Worker) Observe(s Sample) {
	if s.Verdict == VerdictNone {
		return
	}
	anomalous := s.Verdict.Anomalous() ||
		s.RCode == 2 /* SERVFAIL */ || s.RCode == 5 /* REFUSED */ || s.RCode == 1 /* FORMERR */ ||
		s.Latency >= latencyOutlier
	if !anomalous {
		w.tick++
		if w.tick < uint32(w.rec.cfg.SampleEvery) {
			return
		}
		w.tick = 0
	}
	w.capture(&s, anomalous)
}

// capture folds the qname, writes the record, and feeds the sketches and
// the rollup.
func (w *Worker) capture(s *Sample, anomalous bool) {
	r := w.rec
	var rec Record
	rec.When = int64(time.Since(r.epoch))
	rec.QType = s.QType
	rec.RCode = s.RCode
	rec.Verdict = s.Verdict
	if anomalous {
		rec.Flags |= FlagAnomalous
	}
	if s.TCP {
		rec.Flags |= FlagTCP
	}
	rec.Client = s.Src.Addr().As16()
	rec.Port = s.Src.Port()
	rec.Latency = LatencyUnknown
	if s.Latency >= 0 {
		us := s.Latency.Microseconds()
		if us > 1<<30 {
			us = 1 << 30
		}
		rec.Latency = int32(us)
	}

	// Fold the qname into dotted lowercase text; firstLen is the leading
	// label's text length (label + dot), so text[firstLen:] is the
	// attack-identifying parent suffix.
	text, firstLen := w.foldQname(s)
	hasName := len(text) > 0
	if hasName {
		rec.Hash = fnv1a64(text)
		tail := text
		if len(tail) > SuffixBytes {
			tail = tail[len(tail)-SuffixBytes:]
		}
		rec.SuffixLen = uint8(copy(rec.Suffix[:], tail))
	}
	w.ring.put(&rec)

	if hasName {
		parent := text[firstLen:]
		if len(parent) == 0 {
			parent = text
		}
		r.topSuffix.Offer(fnv1a64(parent), parent)
		r.topQType.Offer(uint64(s.QType), nil)
	}
	r.topResolver.Offer(fnv1a64(rec.Client[:]), rec.Client[:])
	r.rollup(s.Zone, s.RCode)

	if anomalous {
		r.anomalousC.Add(1)
	} else {
		r.sampledC.Add(1)
	}
}

// foldQname renders the sample's qname (wire form preferred, text
// fallback) as case-folded dotted text into the worker's fold buffer.
func (w *Worker) foldQname(s *Sample) (text []byte, firstLen int) {
	out := w.fold[:0]
	if len(s.QnameWire) > 0 {
		off := 0
		for off < len(s.QnameWire) {
			l := int(s.QnameWire[off])
			if l == 0 || l > 63 || off+1+l > len(s.QnameWire) {
				break
			}
			off++
			for i := 0; i < l; i++ {
				c := s.QnameWire[off+i]
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				}
				out = append(out, c)
			}
			out = append(out, '.')
			if firstLen == 0 {
				firstLen = l + 1
			}
			off += l
		}
		if len(out) == 0 && len(s.QnameWire) == 1 && s.QnameWire[0] == 0 {
			out = append(out, '.') // the root
		}
		return out, firstLen
	}
	if s.Qname != "" {
		for i := 0; i < len(s.Qname); i++ {
			c := s.Qname[i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			out = append(out, c)
			if firstLen == 0 && c == '.' {
				firstLen = i + 1
			}
		}
		if firstLen == len(out) {
			firstLen = 0 // single-label name: the whole text is the suffix
		}
		return out, firstLen
	}
	return nil, 0
}

// rollup bumps the per-(zone, rcode) counter, registering the series on
// first sight while under the cap. The fast path — once every rcode in use
// has its series — is one RLock + map read + atomic add, and allocates
// nothing.
func (r *Recorder) rollup(zone string, rcode uint8) {
	key := rollKey{zone: zone, rcode: rcode}
	r.rollMu.RLock()
	c := r.roll[key]
	if c == nil && len(r.roll) >= maxRollupSeries {
		c = r.other[rcode]
	}
	r.rollMu.RUnlock()
	if c == nil {
		c = r.register(key)
	}
	c.Add(1)
}

// register returns the series key counts into, registering it: its own
// while the rollup is under the cap, its rcode's zone="other" one past it.
func (r *Recorder) register(key rollKey) *obs.Counter {
	r.rollMu.Lock()
	defer r.rollMu.Unlock()
	if c := r.roll[key]; c != nil {
		return c
	}
	if len(r.roll) >= maxRollupSeries {
		if r.other[key.rcode] == nil {
			r.other[key.rcode] = r.rollupSeries("other", key.rcode)
		}
		return r.other[key.rcode]
	}
	zone := key.zone
	if zone == "" {
		zone = "none"
	}
	c := r.rollupSeries(zone, key.rcode)
	r.roll[key] = c
	return c
}

func (r *Recorder) rollupSeries(zone string, rcode uint8) *obs.Counter {
	return r.reg.Counter(obs.MetricFlightZoneRcode,
		"Flight-recorder captured records by matched zone and rcode "+
			"(normal traffic head-sampled, anomalies complete; zones past the "+
			"series cap as \"other\").",
		"zone", zone, "rcode", RCodeName(rcode))
}

// Snapshot merges every ring and returns up to max records, newest first
// (max <= 0 means everything). Forensics path; allocates freely.
func (r *Recorder) Snapshot(max int) []Record {
	var out []Record
	for _, rg := range r.rings {
		out = rg.snapshot(out)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].When > out[j].When })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// TopSuffixes reports the heavy-hitter qname parent suffixes.
func (r *Recorder) TopSuffixes() []TopItem { return r.topSuffix.Snapshot() }

// TopQTypes reports the heavy-hitter query types. Keys are empty; the
// item Count is keyed by the sketch hash, which for this dimension IS
// the qtype, recovered via the handler.
func (r *Recorder) TopQTypes() []TopItem { return r.topQType.snapshotQTypes() }

// snapshotQTypes renders the qtype dimension, whose sketch hash is the
// raw qtype value.
func (t *TopK) snapshotQTypes() []TopItem {
	t.mu.Lock()
	out := make([]TopItem, 0, len(t.slots))
	for i := range t.slots {
		e := &t.slots[i]
		out = append(out, TopItem{
			Key:   []byte(QTypeName(uint16(e.hash))),
			Count: e.count,
			Err:   e.err,
		})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// TopResolvers reports the heavy-hitter client addresses (16-byte keys).
func (r *Recorder) TopResolvers() []TopItem { return r.topResolver.Snapshot() }
