package netsim

import "akamaidns/internal/simtime"

// Methods only this package's tests call. Nothing outside the tests
// does, so they live beside them.

// Utilization reports the current bucket fill fraction for the direction
// from `from` (0..1; 0 when unconstrained).
func (l *Link) Utilization(from NodeID, now simtime.Time) float64 {
	if l.capacity <= 0 {
		return 0
	}
	d := l.dir(from)
	level := l.level[d] - now.Sub(l.last[d]).Seconds()*l.capacity
	if level < 0 {
		level = 0
	}
	max := l.capacity * l.burst
	if max <= 0 {
		return 0
	}
	u := level / max
	if u > 1 {
		u = 1
	}
	return u
}

// HopCount reports how many forwarding hops the packet has taken.
func (p *Packet) HopCount() int { return len(p.Hops) }
