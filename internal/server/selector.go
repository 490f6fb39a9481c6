package server

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/transport"
)

// Selector is the only component clients talk to directly (Section 4). It
// advertises tasks, forwards client check-ins to the Coordinator for
// assignment, and routes in-session requests to the owning Aggregator using
// a cached assignment map. On a stale route the map is refreshed from the
// Coordinator and the call retried once; if that fails too, the client
// retries through a different Selector (Appendix E.4 "Client Routing").
//
// The selector decides where an in-session call goes and the fabric moves
// it (transport.Forward): in memory as one plain Call, on a networked
// fabric as a relay over an upstream session pinned to the client's, which
// carries an elided chunk train as one train and answers as the bytes the
// aggregator sent. The same code serves the in-process selectors of `papaya
// serve` and the standalone ingress tier (`papaya selector`, Section 3).
type Selector struct {
	name    string
	net     transport.Fabric
	coord   string
	timings Timings

	mu          sync.Mutex
	assignments map[string]Assignment
	// answered holds the task of every join answered since the last
	// assign-client, which carries it to the coordinator
	// (AssignClientRequest.Answered).
	answered []string

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// obs holds this node's resolved metric children (obsmetrics.go).
	obs *selObs
}

// NewSelector registers a selector node on the fabric and starts its map
// refresh loop (Appendix E.4 "Client Routing").
func NewSelector(name string, net transport.Fabric, coordinator string, timings Timings) *Selector {
	s := &Selector{
		name:        name,
		net:         net,
		coord:       coordinator,
		timings:     timings,
		assignments: make(map[string]Assignment),
		stop:        make(chan struct{}),
		obs:         newSelObs(name),
	}
	net.Register(name, s.handle)
	s.wg.Add(1)
	go s.refreshLoop()
	return s
}

// Stop halts the refresh loop and unregisters the node. It is idempotent.
func (s *Selector) Stop() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.wg.Wait()
		s.net.Unregister(s.name)
	})
}

func (s *Selector) handle(method string, payload any) (any, error) {
	switch method {
	case "checkin":
		return s.checkin(payload.(CheckinRequest))
	case "route":
		return s.route(payload.(RouteRequest))
	default:
		return nil, fmt.Errorf("selector %s: unknown method %q", s.name, method)
	}
}

// RouteRequest asks the selector to forward an in-session call to the
// aggregator that owns the task.
type RouteRequest struct {
	TaskID  string
	Method  string
	Payload any

	// TraceID is the session's trace ID (0 = untraced); the selector
	// records a routing span for every forwarded in-session call under
	// it.
	TraceID uint64
}

// checkin runs the selection phase for one client: ask the Coordinator for
// an eligible task with positive demand, then open a session on the owning
// Aggregator. Rejection is a normal outcome ("the client will try to
// participate at another time"). Once the join answers, whatever the
// outcome, the task is queued for the next assign-client so the
// coordinator stops counting this client as pending (Section 6.2).
func (s *Selector) checkin(req CheckinRequest) (any, error) {
	start := time.Now()
	s.mu.Lock()
	answered := s.answered
	s.answered = nil
	s.mu.Unlock()
	// Answers lost with a failed call stay counted until the next
	// heartbeat resets the coordinator's pending count.
	resp, err := s.net.Call(s.name, s.coord, "assign-client", AssignClientRequest{
		ClientID:     req.ClientID,
		Capabilities: req.Capabilities,
		Answered:     answered,
	})
	if err != nil {
		s.obs.checkinsErrored.Inc()
		s.obs.checkinSeconds.Observe(time.Since(start).Seconds())
		s.obs.span(req.TraceID, "checkin", "", start, "coordinator unreachable")
		return nil, fmt.Errorf("selector %s: coordinator unreachable: %w", s.name, err)
	}
	asg := resp.(AssignClientResponse)
	if !asg.Assigned {
		s.obs.checkinsRejected.Inc()
		s.obs.checkinSeconds.Observe(time.Since(start).Seconds())
		s.obs.span(req.TraceID, "checkin", "", start, "no task with demand")
		// TraceID is echoed even on rejection: the client learns the
		// control plane records spans before it ever holds a session.
		return CheckinResponse{Accepted: false, Reason: "no task with demand", TraceID: req.TraceID}, nil
	}
	s.learn(Assignment{TaskID: asg.TaskID, Aggregator: asg.Aggregator, Seq: asg.Seq})

	joinResp, err := s.net.Call(s.name, asg.Aggregator, "join",
		JoinRequest{TaskID: asg.TaskID, ClientID: req.ClientID, TraceID: req.TraceID})
	s.mu.Lock()
	s.answered = append(s.answered, asg.TaskID)
	s.mu.Unlock()
	if err != nil {
		s.obs.checkinsErrored.Inc()
		s.obs.checkinSeconds.Observe(time.Since(start).Seconds())
		s.obs.span(req.TraceID, "checkin", asg.TaskID, start, err.Error())
		return CheckinResponse{Accepted: false, Reason: err.Error(), TraceID: req.TraceID}, nil
	}
	jr := joinResp.(JoinResponse)
	if !jr.Accepted {
		s.obs.checkinsRejected.Inc()
		s.obs.checkinSeconds.Observe(time.Since(start).Seconds())
		s.obs.span(req.TraceID, "checkin", asg.TaskID, start, jr.Reason)
		// The aggregator's backoff hint rides through unchanged: the
		// selector has no better estimate of when a slot frees up.
		return CheckinResponse{Accepted: false, Reason: jr.Reason, TraceID: req.TraceID, RetryAfterMs: jr.RetryAfterMs}, nil
	}
	s.obs.checkinsAccepted.Inc()
	s.obs.checkinSeconds.Observe(time.Since(start).Seconds())
	s.obs.span(req.TraceID, "checkin", asg.TaskID, start, "")
	return CheckinResponse{
		Accepted:   true,
		TaskID:     asg.TaskID,
		Aggregator: asg.Aggregator,
		SessionID:  jr.SessionID,
		Version:    jr.Version,
		TraceID:    req.TraceID,
	}, nil
}

// route answers a session call with a relay directive toward the owning
// aggregator; the fabric moves the call and hands the client the
// aggregator's answer. A failed forward is retried once after refreshing
// the assignment map (stale map after a task moved); a map miss refreshes
// before the first attempt instead. After a refresh only the map's entry is
// trusted, so a genuinely unknown task reports "no assignment". The route
// span and histogram cover the forwarded exchange: the directive's Done
// closes them.
func (s *Selector) route(req RouteRequest) (any, error) {
	start := time.Now()
	fwd := transport.Forward{
		Method:  req.Method,
		Payload: req.Payload,
		Done: func(err error) {
			s.obs.routeSeconds.Observe(time.Since(start).Seconds())
			errText := ""
			if err != nil {
				errText = err.Error()
			}
			s.obs.span(req.TraceID, "route/"+req.Method, req.TaskID, start, errText)
		},
	}
	if asg, ok := s.lookup(req.TaskID); ok {
		fwd.To = asg.Aggregator
		fwd.Reresolve = func() (string, error) { return s.resolve(req.TaskID) }
		return fwd, nil
	}
	to, err := s.resolve(req.TaskID)
	if err != nil {
		fwd.Done(err)
		return nil, err
	}
	fwd.To = to
	return fwd, nil
}

// resolve refreshes the assignment map and names the task's owner.
func (s *Selector) resolve(taskID string) (string, error) {
	if err := s.refreshMap(); err != nil {
		return "", fmt.Errorf("selector %s: map refresh failed: %w", s.name, err)
	}
	asg, ok := s.lookup(taskID)
	if !ok {
		return "", fmt.Errorf("selector %s: no assignment for task %q", s.name, taskID)
	}
	return asg.Aggregator, nil
}

func (s *Selector) lookup(taskID string) (Assignment, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	asg, ok := s.assignments[taskID]
	return asg, ok
}

func (s *Selector) learn(asg Assignment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.assignments[asg.TaskID]; !ok || asg.Seq >= cur.Seq {
		s.assignments[asg.TaskID] = asg
	}
}

func (s *Selector) refreshMap() error {
	resp, err := s.net.Call(s.name, s.coord, "map-request", nil)
	if err != nil {
		return err
	}
	m := resp.(MapResponse)
	if m.Assignments == nil {
		// An empty map decodes as nil (wire versioning rule 3); learn()
		// must still be able to write into it.
		m.Assignments = make(map[string]Assignment)
	}
	s.mu.Lock()
	s.assignments = m.Assignments
	s.mu.Unlock()
	return nil
}

func (s *Selector) refreshLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.timings.MapRefresh)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			_ = s.refreshMap()
		}
	}
}
