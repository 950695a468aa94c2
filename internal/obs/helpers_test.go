package obs

import "fmt"

// Methods only this package's tests call. Nothing outside the tests
// does, so they live beside them.

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.getFamily(name, help, KindGauge).getSeries(labels, func(s *series) {
		s.g = &Gauge{}
	})
	if s.g == nil {
		panic(fmt.Sprintf("obs: metric %q%s is a gauge func, not a gauge", name, s.labels))
	}
	return s.g
}

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }
