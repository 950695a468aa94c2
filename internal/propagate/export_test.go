package propagate

import (
	"time"

	"akamaidns/internal/backoff"
)

// NewTimed is New with the poll interval, the per-attempt timeout and the
// retry backoff set, so that a test runs the loop on other timers than
// pollInterval, attemptTimeout and backoff.Default().
func NewTimed(cfg Config, interval, timeout time.Duration, pol backoff.Policy) *Puller {
	p := New(cfg)
	p.interval, p.timeout, p.pol = interval, timeout, pol
	return p
}
