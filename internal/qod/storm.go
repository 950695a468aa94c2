package qod

import "fmt"

// Storm thresholds: the contained panics, or the undecodable packets, a
// server may count inside one storm window before the window reports a
// storm. Isolated panics are the quarantine's to handle; a storm means
// containment is not enough, and the server's monitoring agent withdraws it.
const (
	StormPanics    = 5
	StormMalformed = 50000
)

// StormWindow is the storm tripwire behind the socket server's agent probe.
// It holds the running panic and decode-error counts seen when it last
// closed, so each Check judges only what arrived since: the interval
// between Checks (the agent's sweep) is the window. It is not safe for
// concurrent use; each probe owns one.
type StormWindow struct{ panics, malformed uint64 }

// NewStormWindow opens a window at the given running counts.
func NewStormWindow(panics, malformed uint64) StormWindow {
	return StormWindow{panics: panics, malformed: malformed}
}

// Check closes the window at the given running counts and opens the next.
// It reports the storm when the panics, or the undecodable packets, counted
// inside the closed window reach their threshold, and nil otherwise.
func (w *StormWindow) Check(panics, malformed uint64) error {
	dp, dm := panics-w.panics, malformed-w.malformed
	w.panics, w.malformed = panics, malformed
	switch {
	case dp >= StormPanics:
		return fmt.Errorf("%d contained panics since the last sweep", dp)
	case dm >= StormMalformed:
		return fmt.Errorf("%d undecodable packets since the last sweep", dm)
	}
	return nil
}
