package mapping

import (
	"sort"

	"akamaidns/internal/dnswire"
)

// Methods only this package's tests call. Nothing outside the tests
// does, so they live beside them.

// Properties lists bound hostnames in canonical order.
func (m *Mapper) Properties() []dnswire.Name {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]dnswire.Name, 0, len(m.properties))
	for h := range m.properties {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}
