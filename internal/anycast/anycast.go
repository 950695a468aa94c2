// Package anycast models the platform's anycast address plan: 24 anycast
// clouds (IPv4/IPv6 prefix pairs), per-enterprise delegation sets of 6
// distinct clouds (supporting C(24,6) = 134,596 enterprises before adding
// clouds), and PoP→cloud placement with no PoP advertising more than two
// clouds (§3.1, §4.3.1).
package anycast

import (
	"fmt"
	"math/big"
	"math/rand"
	"sort"

	"akamaidns/internal/netsim"
)

// NumClouds is the production cloud count.
const NumClouds = 24

// DelegationSetSize is the number of clouds assigned to each ADHS
// enterprise.
const DelegationSetSize = 6

// TopLevelClouds is the number of clouds delegated to cross-enterprise CDN
// entry domains like edgesuite.net ("to match the model used by the root and
// many critical toplevel domains").
const TopLevelClouds = 13

// MaxCloudsPerPoP caps how many clouds any single PoP advertises.
const MaxCloudsPerPoP = 2

// CloudID identifies one anycast cloud, 0 ≤ id < NumClouds.
type CloudID int

// Prefix returns the netsim routing prefix for the cloud (the v4 member of
// the prefix pair; the v6 twin shares fate in this model).
func (c CloudID) Prefix() netsim.Prefix {
	return netsim.Prefix(fmt.Sprintf("anycast-%02d", int(c)))
}

// NSName returns the nameserver hostname conventionally used for the cloud
// in NS records ("a0-xx.akamaidns.test.").
func (c CloudID) NSName() string {
	return fmt.Sprintf("a%d.ns.akamaidns.test.", int(c))
}

// Capacity returns C(n, k): how many enterprises can receive a unique
// delegation set.
func Capacity(n, k int) *big.Int {
	return new(big.Int).Binomial(int64(n), int64(k))
}

// DelegationSet is a sorted set of distinct clouds assigned to an
// enterprise.
type DelegationSet [DelegationSetSize]CloudID

func (d DelegationSet) String() string {
	s := ""
	for i, c := range d {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", int(c))
	}
	return s
}

// Clouds returns the set as a slice.
func (d DelegationSet) Clouds() []CloudID { return append([]CloudID(nil), d[:]...) }

// Assigner hands out unique delegation sets. It enumerates combinations in
// a deterministic shuffled order so consecutive enterprises receive
// well-spread sets.
type Assigner struct {
	rng   *rand.Rand
	used  map[DelegationSet]string // set -> enterprise
	byEnt map[string]DelegationSet
}

// NewAssigner creates an assigner seeded for deterministic behaviour.
func NewAssigner(rng *rand.Rand) *Assigner {
	return &Assigner{rng: rng, used: make(map[DelegationSet]string), byEnt: make(map[string]DelegationSet)}
}

// Assign returns the delegation set for an enterprise, creating a unique one
// on first use. It fails only when all C(24,6) sets are exhausted.
func (a *Assigner) Assign(enterprise string) (DelegationSet, error) {
	if ds, ok := a.byEnt[enterprise]; ok {
		return ds, nil
	}
	capacity := Capacity(NumClouds, DelegationSetSize)
	if int64(len(a.used)) >= capacity.Int64() {
		return DelegationSet{}, fmt.Errorf("anycast: all %s delegation sets assigned", capacity)
	}
	// Rejection-sample a random combination; with 134,596 sets and typical
	// enterprise counts this terminates almost immediately.
	for {
		ds := a.randomSet()
		if _, taken := a.used[ds]; !taken {
			a.used[ds] = enterprise
			a.byEnt[enterprise] = ds
			return ds, nil
		}
	}
}

func (a *Assigner) randomSet() DelegationSet {
	perm := a.rng.Perm(NumClouds)
	var ds DelegationSet
	picks := perm[:DelegationSetSize]
	sort.Ints(picks)
	for i, p := range picks {
		ds[i] = CloudID(p)
	}
	return ds
}

// Placement maps clouds onto PoPs subject to the ≤2-clouds-per-PoP rule,
// spreading each cloud across many PoPs for resilience.
type Placement struct {
	// PoPClouds[p] lists the clouds PoP p advertises.
	PoPClouds map[int][]CloudID
	// CloudPoPs[c] lists the PoPs advertising cloud c.
	CloudPoPs map[CloudID][]int
}

// Place distributes NumClouds clouds over numPoPs PoPs: every PoP gets
// MaxCloudsPerPoP clouds (or one, when capacity runs short), and clouds are
// balanced so each is advertised from roughly numPoPs*2/24 locations.
func Place(numPoPs int, rng *rand.Rand) (*Placement, error) {
	if numPoPs < NumClouds/MaxCloudsPerPoP {
		return nil, fmt.Errorf("anycast: %d PoPs cannot host %d clouds at %d clouds/PoP",
			numPoPs, NumClouds, MaxCloudsPerPoP)
	}
	pl := &Placement{
		PoPClouds: make(map[int][]CloudID, numPoPs),
		CloudPoPs: make(map[CloudID][]int, NumClouds),
	}
	// Greedy balanced dealing: each PoP takes the currently least-replicated
	// clouds it does not already advertise (random tie-break). With
	// numPoPs*MaxCloudsPerPoP >= NumClouds this guarantees full coverage
	// and near-perfect balance.
	counts := make([]int, NumClouds)
	popOrder := rng.Perm(numPoPs)
	for slot := 0; slot < MaxCloudsPerPoP; slot++ {
		for _, p := range popOrder {
			best := -1
			bestCount := int(^uint(0) >> 1)
			tie := 0
			for c := 0; c < NumClouds; c++ {
				if hasCloud(pl.PoPClouds[p], CloudID(c)) {
					continue
				}
				switch {
				case counts[c] < bestCount:
					best, bestCount, tie = c, counts[c], 1
				case counts[c] == bestCount:
					tie++
					if rng.Intn(tie) == 0 {
						best = c
					}
				}
			}
			c := CloudID(best)
			counts[best]++
			pl.PoPClouds[p] = append(pl.PoPClouds[p], c)
			pl.CloudPoPs[c] = append(pl.CloudPoPs[c], p)
		}
	}
	return pl, nil
}

func hasCloud(cs []CloudID, c CloudID) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

// Validate checks the placement invariants: per-PoP cloud cap, and every
// cloud advertised from at least minPoPsPerCloud locations.
func (pl *Placement) Validate(minPoPsPerCloud int) error {
	for p, cs := range pl.PoPClouds {
		if len(cs) > MaxCloudsPerPoP {
			return fmt.Errorf("anycast: PoP %d advertises %d clouds", p, len(cs))
		}
		seen := map[CloudID]bool{}
		for _, c := range cs {
			if seen[c] {
				return fmt.Errorf("anycast: PoP %d advertises cloud %d twice", p, c)
			}
			seen[c] = true
		}
	}
	for c := CloudID(0); c < NumClouds; c++ {
		if len(pl.CloudPoPs[c]) < minPoPsPerCloud {
			return fmt.Errorf("anycast: cloud %d advertised from only %d PoPs", c, len(pl.CloudPoPs[c]))
		}
	}
	return nil
}
