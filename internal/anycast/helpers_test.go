package anycast

// Methods only this package's tests call. Nothing outside the tests
// does, so they live beside them.

// Assigned reports the number of delegation sets handed out.
func (a *Assigner) Assigned() int { return len(a.used) }

// Contains reports whether the set includes cloud c.
func (d DelegationSet) Contains(c CloudID) bool {
	for _, x := range d {
		if x == c {
			return true
		}
	}
	return false
}

// Overlap counts clouds shared with another set. The paper's collateral-
// damage argument (§4.3.1) rests on any two distinct sets differing in at
// least one cloud, i.e. Overlap < DelegationSetSize.
func (d DelegationSet) Overlap(o DelegationSet) int {
	n := 0
	for _, c := range d {
		if o.Contains(c) {
			n++
		}
	}
	return n
}
