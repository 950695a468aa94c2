package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// numShards spreads metric families across independently locked maps so
// concurrent get-or-create calls from different subsystems do not contend.
// Must be a power of two.
const numShards = 16

// series is one (name, labels) time series.
type series struct {
	labels string // rendered label block: `{k="v",...}` or ""
	c      *Counter
	g      *Gauge
	fn     func() float64 // gauge/counter func, evaluated at collection
	h      *Histogram
}

// family groups the series of one metric name.
type family struct {
	name, help string
	kind       Kind

	mu     sync.RWMutex
	series map[string]*series
}

type shard struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// Registry is a sharded metric registry. Get-or-create lookups hash the
// family name onto a shard; hot paths are expected to hold the returned
// metric handles, making increments pure atomic ops.
type Registry struct {
	shards [numShards]shard
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.shards {
		r.shards[i].fams = make(map[string]*family)
	}
	return r
}

// fnv32a hashes the family name for shard selection.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// renderLabels builds the canonical label block from k,v pairs, sorted by
// key. Panics on an odd pair count (programmer error at registration time).
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("obs: odd label key/value count")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// getFamily finds or creates the family, enforcing kind consistency.
func (r *Registry) getFamily(name, help string, kind Kind) *family {
	sh := &r.shards[fnv32a(name)&(numShards-1)]
	sh.mu.RLock()
	f := sh.fams[name]
	sh.mu.RUnlock()
	if f == nil {
		sh.mu.Lock()
		f = sh.fams[name]
		if f == nil {
			f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
			sh.fams[name] = f
		}
		sh.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// getSeries finds or creates a series within the family, initializing it
// with mk on first creation.
func (f *family) getSeries(labels []string, mk func(*series)) *series {
	key := renderLabels(labels)
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	s = &series{labels: key}
	mk(s)
	f.series[key] = s
	return s
}

// Counter returns the counter for (name, labels), creating it on first use.
// Labels are alternating key, value strings.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.getFamily(name, help, KindCounter).getSeries(labels, func(s *series) {
		s.c = &Counter{}
	})
	if s.c == nil {
		panic(fmt.Sprintf("obs: metric %q%s is a counter func, not a counter", name, s.labels))
	}
	return s.c
}

// GaugeFunc registers a gauge whose value is computed by fn at collection
// time (queue depths, cache sizes). fn must not call back into the
// registry. Re-registering the same series replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	f := r.getFamily(name, help, KindGauge)
	s := f.getSeries(labels, func(s *series) {})
	f.mu.Lock()
	s.fn = fn
	s.g = nil
	f.mu.Unlock()
}

// CounterFunc registers a counter whose value is read by fn at collection
// time — for subsystems that already keep their own monotonic counters.
// fn must be monotonic and must not call back into the registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	f := r.getFamily(name, help, KindCounter)
	s := f.getSeries(labels, func(s *series) {})
	f.mu.Lock()
	s.fn = fn
	s.c = nil
	f.mu.Unlock()
}

// Histogram returns the histogram for (name, labels), creating it with the
// given buckets on first use (nil buckets = DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	s := r.getFamily(name, help, KindHistogram).getSeries(labels, func(s *series) {
		s.h = NewHistogram(buckets)
	})
	return s.h
}

// Point is one collected time series value.
type Point struct {
	Name   string
	Labels string // rendered label block (`{k="v"}`) or ""
	Kind   Kind
	Help   string
	// Value carries counter and gauge readings.
	Value float64
	// Histogram readings.
	Count   uint64
	Sum     float64
	Buckets []Bucket
}

// Snapshot is a point-in-time copy of every registered series, sorted by
// name then label block — the interchange format between the registry and
// the Figure-5 collector, and the input to the text exposition.
type Snapshot []Point

// Snapshot collects all series. Gauge/counter funcs are evaluated inline;
// they must not call back into the registry.
func (r *Registry) Snapshot() Snapshot {
	var out Snapshot
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		fams := make([]*family, 0, len(sh.fams))
		for _, f := range sh.fams {
			fams = append(fams, f)
		}
		sh.mu.RUnlock()
		for _, f := range fams {
			f.mu.RLock()
			for _, s := range f.series {
				p := Point{Name: f.name, Labels: s.labels, Kind: f.kind, Help: f.help}
				switch {
				case s.h != nil:
					p.Count = s.h.Count()
					p.Sum = s.h.Sum()
					p.Buckets = s.h.Buckets()
				case s.fn != nil:
					p.Value = s.fn()
				case s.c != nil:
					p.Value = float64(s.c.Load())
				case s.g != nil:
					p.Value = float64(s.g.Load())
				}
				out = append(out, p)
			}
			f.mu.RUnlock()
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

// Value returns the reading of the exact (name, labels) series.
func (s Snapshot) Value(name string, labels ...string) (float64, bool) {
	key := renderLabels(labels)
	for _, p := range s {
		if p.Name == name && p.Labels == key {
			return p.Value, true
		}
	}
	return 0, false
}
