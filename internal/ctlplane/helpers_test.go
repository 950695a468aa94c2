package ctlplane

import "akamaidns/internal/zone"

// Methods only this package's tests call. Nothing outside the tests
// does, so they live beside them.

// Store exposes the serving store the controller reconciles against.
func (c *Controller) Store() *zone.Store { return c.store }
