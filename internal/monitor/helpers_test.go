package monitor

// Methods only this package's tests call. Nothing outside the tests
// does, so they live beside them.

// Protect marks agents as never-suspendable.
func (c *Coordinator) Protect(agentIDs ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range agentIDs {
		c.protected[id] = true
	}
}

// HoldingSuspension reports whether the agent currently holds a slot.
func (a *Agent) HoldingSuspension() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.suspendedBy
}
