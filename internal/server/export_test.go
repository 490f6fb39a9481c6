package server

import "time"

// The reaper takes its instant as an argument; these two hooks let the
// conformance suite (package server_test) drive it with explicit instants
// instead of sleeping against the heartbeat. ReleaseTally exposes the
// buffer's release bookkeeping to the off-path step tests.

// ReapSessionsAt runs the session-TTL sweep as if the heartbeat ticked at
// now.
func (a *Aggregator) ReapSessionsAt(now time.Time) { a.reapSessions(now) }

// SessionLastActive reports the last client activity recorded on a live
// session; ok is false when the session is unknown (closed or reaped).
func (a *Aggregator) SessionLastActive(taskID string, sessionID uint64) (at time.Time, ok bool) {
	a.mu.Lock()
	ts := a.tasks[taskID]
	a.mu.Unlock()
	if ts == nil {
		return time.Time{}, false
	}
	ts.mu.Lock()
	s := ts.sessions[sessionID]
	ts.mu.Unlock()
	if s == nil {
		return time.Time{}, false
	}
	return s.idleSince(), true
}

// ReleaseTally reports, once the task's pending step has settled, how many
// releases its buffer has made, how many updates they aggregated, and how
// many are still buffered.
func (a *Aggregator) ReleaseTally(taskID string) (releases, drained, buffered int) {
	a.mu.Lock()
	ts := a.tasks[taskID]
	a.mu.Unlock()
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.settleLocked()
	return ts.round.Buf.Releases(), ts.round.Buf.Drained(), ts.round.Buf.Count()
}
