package bgp

import "akamaidns/internal/netsim"

// Methods only this package's tests call. Nothing outside the tests
// does, so they live beside them.

// Node reports the underlying netsim node.
func (s *Speaker) Node() *netsim.Node { return s.node }

// Best returns the current best route for prefix (nil when unreachable).
func (s *Speaker) Best(prefix netsim.Prefix) *Route { return s.best[prefix] }
