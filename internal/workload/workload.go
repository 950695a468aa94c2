// Package workload generates synthetic query traffic calibrated to the
// paper's §2 characterization of Akamai DNS's production workload:
//
//   - Figure 1: diurnal + weekly query-rate curve (3.9M–5.6M qps);
//   - Figure 2: heavy skew — the top 3% of resolver IPs drive 80% of
//     queries, 1% of ASNs 83%, 1% of zones 88% (top zone 5.5%);
//   - Figure 3: per-resolver rates at one nameserver are bursty (max 2,352
//     qps vs highest average 173; <1% of resolvers average over 1 qps);
//   - Figure 4: heavy resolvers are temporally stable (53% of query-weighted
//     resolvers change by less than ±10% week-over-week);
//   - §4.3.4 colour: NXDOMAIN is ~0.5% of legitimate responses; per-source
//     IP TTL is consistent (12% vary at all in an hour, 4.7% ever by >±1).
//
// The production system's actual traffic is unavailable; these calibrated
// marginals exercise the same design decisions (allowlists, rate limits,
// loyalty filters) the paper derives from them.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Calibration targets from the paper.
const (
	TopIPFrac    = 0.03
	TopIPShare   = 0.80
	TopASNFrac   = 0.01
	TopASNShare  = 0.83
	TopZoneFrac  = 0.01
	TopZoneShare = 0.88
	NXDomainRate = 0.005
)

// ZipfWeights returns normalized power-law weights w_i ∝ 1/(i+1)^s.
func ZipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	total := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// TopShare computes the share of total mass held by the top frac of weights
// (weights must be sorted descending or produced by ZipfWeights).
func TopShare(w []float64, frac float64) float64 {
	k := int(math.Ceil(frac * float64(len(w))))
	if k < 1 {
		k = 1
	}
	if k > len(w) {
		k = len(w)
	}
	s := 0.0
	for i := 0; i < k; i++ {
		s += w[i]
	}
	return s
}

// CalibrateZipf finds, by bisection, the exponent s such that the top frac
// of n weights holds share of the mass.
func CalibrateZipf(n int, frac, share float64) float64 {
	lo, hi := 0.1, 3.0
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if TopShare(ZipfWeights(n, mid), frac) < share {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// HeadTailWeights models the paper's zone/ASN skew more faithfully than a
// single power law: the head (top headFrac of keys) holds headShare of the
// mass with a mild internal Zipf calibrated so the single largest key holds
// topKeyShare of the total; the tail splits the remainder with a gentle
// power law. (Figure 2's zones: top 1% hold 88% yet the single hottest
// zone holds only 5.5% — impossible under one Zipf exponent.)
func HeadTailWeights(n int, headFrac, headShare, topKeyShare float64) []float64 {
	h := int(math.Ceil(headFrac * float64(n)))
	if h < 1 {
		h = 1
	}
	if h >= n {
		return ZipfWeights(n, CalibrateZipf(n, headFrac, headShare))
	}
	head := ZipfWeights(h, calibrateFirstWeight(h, topKeyShare/headShare))
	tail := ZipfWeights(n-h, 0.8)
	out := make([]float64, 0, n)
	for _, w := range head {
		out = append(out, w*headShare)
	}
	for _, w := range tail {
		out = append(out, w*(1-headShare))
	}
	return out
}

// calibrateFirstWeight bisects the Zipf exponent so the first of h weights
// equals target.
func calibrateFirstWeight(h int, target float64) float64 {
	lo, hi := 0.0, 4.0
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if ZipfWeights(h, mid)[0] < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// HeadTailWeightsSmooth is the HeadTailWeights variant used for resolver
// volumes: the tail exponent is solved so the weight curve is continuous
// at the head/tail boundary. Continuity matters for the top-list churn
// dynamics (§2's 92% week-over-week overlap): with a weight gap at the
// boundary no weekly jitter could ever change list membership.
func HeadTailWeightsSmooth(n int, headFrac, headShare, topKeyShare float64) []float64 {
	h := int(math.Ceil(headFrac * float64(n)))
	if h < 1 {
		h = 1
	}
	if h >= n {
		return ZipfWeights(n, CalibrateZipf(n, headFrac, headShare))
	}
	head := ZipfWeights(h, calibrateFirstWeight(h, topKeyShare/headShare))
	out := make([]float64, 0, n)
	for _, w := range head {
		out = append(out, w*headShare)
	}
	// Tail: a shifted power law w(r) = lastHead·(r/h)^-s for global ranks
	// r > h. This keeps both the value AND the local slope gentle at the
	// head/tail boundary, so weekly volume jitter can move resolvers across
	// the top-3% cut — the churn behind §2's ~92% week-over-week list
	// overlap. (A tail restarting at its own rank 1 decays 10x within the
	// first hundred ranks, freezing membership.) The exponent is solved by
	// bisection so the tail carries exactly 1-headShare of the mass.
	lastHead := out[len(out)-1]
	tailMass := func(s float64) float64 {
		total := 0.0
		for r := h + 1; r <= n; r++ {
			total += lastHead * math.Pow(float64(r)/float64(h), -s)
		}
		return total
	}
	sLo, sHi := 0.0, 12.0
	switch {
	case tailMass(sLo) < 1-headShare:
		// Even a flat tail is too light: distribute uniformly.
		for i := h; i < n; i++ {
			out = append(out, (1-headShare)/float64(n-h))
		}
		return out
	case tailMass(sHi) > 1-headShare:
		sLo = sHi
	default:
		for iter := 0; iter < 50; iter++ {
			mid := (sLo + sHi) / 2
			if tailMass(mid) > 1-headShare {
				sLo = mid
			} else {
				sHi = mid
			}
		}
	}
	sTail := (sLo + sHi) / 2
	for r := h + 1; r <= n; r++ {
		out = append(out, lastHead*math.Pow(float64(r)/float64(h), -sTail))
	}
	return out
}

// ResolverProfile is one synthetic resolver IP.
type ResolverProfile struct {
	ID string
	// Weight is the resolver's share of global query volume.
	Weight float64
	ASN    int
	Region string
	// BaseIPTTL is the TTL its packets arrive with at "our" nameserver.
	BaseIPTTL int
	// TTLJitter classifies the source: 0 = perfectly stable, 1 = varies
	// within ±1, 2 = varies more (4.7% of sources per the paper).
	TTLJitter int
	// Burst is the max/avg rate ratio of its arrival process (Figure 3).
	Burst float64
	// WeeklySigma is the log-normal sigma of week-over-week volume change.
	WeeklySigma float64
	// seed drives the resolver's private jitter streams.
	seed uint64
}

// mix64 is splitmix64: a strong finalizer so that per-(resolver, week)
// jitter streams are decorrelated (naive nearby seeds produce correlated
// math/rand output).
func mix64(a, b uint64) uint64 {
	z := a + 0x9E3779B97F4A7C15*b + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// ZoneProfile is one hosted zone with its share of queries.
type ZoneProfile struct {
	Name   string
	Weight float64
}

// Config sizes the synthetic population.
type Config struct {
	NumResolvers int
	NumASNs      int
	NumZones     int
	// TotalQPS is the average global rate the diurnal curve oscillates
	// around (the paper's is ~4.75M; simulations typically scale down).
	TotalQPS float64
}

// Population is the calibrated synthetic world.
type Population struct {
	Cfg       Config
	Resolvers []ResolverProfile
	Zones     []ZoneProfile
	// zoneCum is the cumulative zone weight for sampling.
	zoneCum []float64
	// resolverCum likewise.
	resolverCum []float64
	rng         *rand.Rand
	// walks caches the per-week cumulative drift (see walkAt).
	walkMu   sync.Mutex
	walks    [][]float64
	walkSeed uint64
}

// regionNames mirrors netsim.DefaultRegions with the paper's 92% NA/EU/Asia
// share.
var regionNames = []struct {
	name   string
	weight float64
}{
	{"na", 0.36}, {"eu", 0.30}, {"as", 0.26}, {"sa", 0.04}, {"af", 0.02}, {"oc", 0.02},
}

// NewPopulation builds the population deterministically from the rng.
func NewPopulation(cfg Config, rng *rand.Rand) *Population {
	p := &Population{Cfg: cfg, rng: rng}
	// Resolver volumes: head/tail skew (top 3% -> 80%; largest single IP
	// around 1% of everything — large public-DNS frontends, not one
	// monster).
	wIP := HeadTailWeightsSmooth(cfg.NumResolvers, TopIPFrac, TopIPShare, 0.01)
	// ASN volumes: heavy resolvers concentrate in heavy ASNs (the top 6
	// ASNs include 3 public DNS services and 2 major ISPs).
	wASN := HeadTailWeights(cfg.NumASNs, TopASNFrac, TopASNShare, 0.12)
	asnCum := cumulative(wASN)
	p.Resolvers = make([]ResolverProfile, cfg.NumResolvers)
	for i := range p.Resolvers {
		region := pickRegion(rng)
		jitterClass := 0
		x := rng.Float64()
		switch {
		case x < 0.047: // varies by more than ±1 at some point
			jitterClass = 2
		case x < 0.12: // varies, within ±1
			jitterClass = 1
		}
		// Weekly volume stability is rank-graded: the heaviest resolvers
		// (which dominate the query-weighted Figure 4 statistic) are very
		// stable; resolvers near the top-3% boundary churn enough to give
		// the ~92% week-to-week list overlap; the light tail churns a lot.
		var sigma float64
		switch {
		case i < cfg.NumResolvers*27/1000: // top 2.7%: very stable
			sigma = 0.07
		case i < cfg.NumResolvers*4/100: // top-3% boundary band: churns
			sigma = 0.6
		case i < cfg.NumResolvers/10:
			sigma = 0.25
		default:
			sigma = 0.45
		}
		p.Resolvers[i] = ResolverProfile{
			ID:          fmt.Sprintf("r%06d", i),
			Weight:      wIP[i],
			ASN:         sampleCum(asnCum, rng.Float64()),
			Region:      region,
			BaseIPTTL:   30 + rng.Intn(35), // arriving TTLs 30..64
			TTLJitter:   jitterClass,
			Burst:       3 + 15*math.Pow(rng.Float64(), 2), // max/avg ratio 3..18 (Figure 3's 2352 vs 173)
			WeeklySigma: sigma,
			seed:        rng.Uint64(),
		}
	}
	// Zones: top 1% hold 88% but the hottest single zone only ~5.5%.
	wZone := HeadTailWeights(cfg.NumZones, TopZoneFrac, TopZoneShare, 0.055)
	p.Zones = make([]ZoneProfile, cfg.NumZones)
	for i := range p.Zones {
		p.Zones[i] = ZoneProfile{Name: fmt.Sprintf("zone%05d.test.", i), Weight: wZone[i]}
	}
	p.zoneCum = cumulative(wZone)
	p.resolverCum = cumulative(wIP)
	p.walkSeed = rng.Uint64()
	return p
}

func cumulative(w []float64) []float64 {
	c := make([]float64, len(w))
	run := 0.0
	for i, x := range w {
		run += x
		c[i] = run
	}
	return c
}

func sampleCum(cum []float64, x float64) int {
	i := sort.SearchFloat64s(cum, x)
	if i >= len(cum) {
		i = len(cum) - 1
	}
	return i
}

func pickRegion(rng *rand.Rand) string {
	x := rng.Float64()
	acc := 0.0
	for _, r := range regionNames {
		acc += r.weight
		if x < acc {
			return r.name
		}
	}
	return regionNames[len(regionNames)-1].name
}

// SampleResolver draws a resolver index by query volume.
func (p *Population) SampleResolver() int {
	return sampleCum(p.resolverCum, p.rng.Float64())
}

// SampleZone draws a zone index by query volume.
func (p *Population) SampleZone() int {
	return sampleCum(p.zoneCum, p.rng.Float64())
}

// QueryEvent is one sampled query.
type QueryEvent struct {
	ResolverIdx int
	ZoneIdx     int
	// Hostname is the qname within the zone; NXDomain queries use a
	// nonexistent label.
	Hostname string
	NXDomain bool
	IPTTL    int
}

// SampleQuery draws one query from the calibrated joint distribution.
func (p *Population) SampleQuery() QueryEvent {
	ri := p.SampleResolver()
	zi := p.SampleZone()
	r := &p.Resolvers[ri]
	ttl := r.BaseIPTTL
	switch r.TTLJitter {
	case 1:
		ttl += p.rng.Intn(3) - 1
	case 2:
		if p.rng.Float64() < 0.1 {
			ttl += p.rng.Intn(9) - 4
		} else {
			ttl += p.rng.Intn(3) - 1
		}
	}
	ev := QueryEvent{ResolverIdx: ri, ZoneIdx: zi, IPTTL: ttl}
	if p.rng.Float64() < NXDomainRate {
		ev.NXDomain = true
		ev.Hostname = fmt.Sprintf("nx%08x.%s", p.rng.Uint32(), p.Zones[zi].Name)
	} else {
		ev.Hostname = fmt.Sprintf("www.%s", p.Zones[zi].Name)
	}
	return ev
}

// QPSAt returns the global query rate at time-of-week t (hours, 0 =
// Sunday 00:00 local), reproducing Figure 1's diurnal swing and
// weekday/weekend structure around Cfg.TotalQPS.
func (p *Population) QPSAt(hourOfWeek float64) float64 {
	day := int(hourOfWeek / 24)
	hod := math.Mod(hourOfWeek, 24)
	// Diurnal: trough ~04:00, peak ~16:00 local-ish aggregate.
	diurnal := 1 + 0.16*math.Sin((hod-10)/24*2*math.Pi)
	weekday := 1.0
	if day == 0 || day == 6 { // weekend dip
		weekday = 0.93
	}
	return p.Cfg.TotalQPS * diurnal * weekday
}

// WeekCurve samples QPSAt at the given step (hours), for a full week.
func (p *Population) WeekCurve(stepHours float64) (hours, qps []float64) {
	for h := 0.0; h < 7*24; h += stepHours {
		hours = append(hours, h)
		qps = append(qps, p.QPSAt(h))
	}
	return hours, qps
}

// walkSigma is the per-week standard deviation of the slow drift component:
// a random walk, so resolver lists drift further apart at month scale than
// at week scale (§2: 92% week-to-week vs 88% month-to-month overlap).
const walkSigma = 0.05

// walkAt returns the cumulative per-resolver drift at the given week,
// extending the cache deterministically as needed.
func (p *Population) walkAt(week int) []float64 {
	p.walkMu.Lock()
	defer p.walkMu.Unlock()
	for len(p.walks) <= week {
		k := len(p.walks)
		cur := make([]float64, len(p.Resolvers))
		if k > 0 {
			prev := p.walks[k-1]
			rng := rand.New(rand.NewSource(int64(mix64(p.walkSeed, uint64(k)))))
			for i := range cur {
				cur[i] = prev[i] + walkSigma*rng.NormFloat64()
			}
		}
		p.walks = append(p.walks, cur)
	}
	return p.walks[week]
}

// WeeklyVolumes returns each resolver's relative volume for a given week,
// applying its week-over-week log-normal drift. Week 0 is the base weight.
// Volumes for one resolver are correlated across weeks through a random
// walk seeded by the resolver index.
func (p *Population) WeeklyVolumes(week int) []float64 {
	out := make([]float64, len(p.Resolvers))
	walk := p.walkAt(week)
	for i := range p.Resolvers {
		r := &p.Resolvers[i]
		// Fast component: independent per-week jitter.
		rng := rand.New(rand.NewSource(int64(mix64(r.seed, uint64(week)))))
		fast := r.WeeklySigma * rng.NormFloat64()
		out[i] = r.Weight * math.Exp(fast+walk[i])
	}
	return out
}

// TopResolverSet returns the IDs of the top frac resolvers by the given
// volume vector.
func TopResolverSet(volumes []float64, frac float64) map[int]bool {
	type kv struct {
		i int
		v float64
	}
	s := make([]kv, len(volumes))
	for i, v := range volumes {
		s[i] = kv{i, v}
	}
	sort.Slice(s, func(a, b int) bool { return s[a].v > s[b].v })
	k := int(math.Ceil(frac * float64(len(volumes))))
	out := make(map[int]bool, k)
	for i := 0; i < k && i < len(s); i++ {
		out[s[i].i] = true
	}
	return out
}

// SetOverlap reports |a ∩ b| / |a| for two top-sets of equal size.
func SetOverlap(a, b map[int]bool) float64 {
	if len(a) == 0 {
		return 0
	}
	n := 0
	for k := range a {
		if b[k] {
			n++
		}
	}
	return float64(n) / float64(len(a))
}

// NameserverView models Figure 3: the per-resolver average and maximum
// per-second rates observed at one modestly-loaded nameserver over 24
// hours. One PoP's catchment is far steeper than the global distribution —
// a couple of public-DNS frontends dominate while the vast majority of its
// resolvers send almost nothing (paper: highest average 173 qps, <1% of
// 60K resolvers above 1 qps). The view uses a rank power law with exponent
// 1.5 scaled so the top resolver averages peakAvgQPS; per-resolver maxima
// apply the burst factor plus Poisson-scale fluctuation.
func (p *Population) NameserverView(nResolvers int, peakAvgQPS float64) (avg, max []float64) {
	if nResolvers > len(p.Resolvers) {
		nResolvers = len(p.Resolvers)
	}
	for i := 0; i < nResolvers; i++ {
		r := &p.Resolvers[i]
		lambda := peakAvgQPS * math.Pow(float64(i+1), -1.5)
		avg = append(avg, lambda)
		// Peak second: burst factor applied to the mean plus Poisson-ish
		// fluctuation (sqrt scaling), floored at 1 query (any resolver
		// that appears at all has a >= 1-query second).
		peak := lambda*r.Burst + 3*math.Sqrt(lambda*r.Burst)
		if peak < 1 {
			peak = 1
		}
		max = append(max, peak)
	}
	return avg, max
}
