package resolver

import "time"

// Methods only this package's tests call. Nothing outside the tests
// does, so they live beside them.

// SRTT reports the smoothed RTT for a server, if measured.
func (r *Resolver) SRTT(server string) (time.Duration, bool) {
	d, ok := r.srtt[server]
	return d, ok
}
