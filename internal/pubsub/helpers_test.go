package pubsub

// Methods only this package's tests call. Nothing outside the tests
// does, so they live beside them.

// Cancel removes the subscription.
func (s *Subscription) Cancel() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cancelled = true
}
