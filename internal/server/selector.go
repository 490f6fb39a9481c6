package server

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/placement"
	"repro/internal/transport"
)

// selectorMaxIdleSessions caps the idle pooled sessions a routing selector
// keeps per aggregator. The pool's live size tracks the selector's peak
// concurrency toward that aggregator; the cap only bounds what survives a
// burst, so a traffic spike doesn't pin file descriptors forever.
const selectorMaxIdleSessions = 16

// Selector is the only component clients talk to directly (Section 4). It
// advertises tasks, forwards client check-ins to the Coordinator for
// assignment, and routes in-session requests to the owning Aggregator using
// a cached assignment map. On a stale route the map is refreshed from the
// Coordinator and the call retried once; if that fails too, the client
// retries through a different Selector (Appendix E.4 "Client Routing").
//
// With SelectorOptions.Routing the selector runs as the paper's scalable
// ingress tier (Section 3): it discovers the live aggregator set from the
// Coordinator, keeps a pool of streamed sessions per aggregator so
// forwarded traffic pipelines over long-lived connections instead of one
// call-scoped exchange each, falls back to a rendezvous route hint
// (internal/placement) when its map has no entry yet, and rebalances live
// — sessions pinned to an aggregator that left the live set are drained
// and new traffic re-pins to the survivors.
type Selector struct {
	name    string
	net     transport.Fabric
	coord   string
	timings Timings
	opts    SelectorOptions

	mu          sync.Mutex
	assignments map[string]Assignment
	agents      []string                       // live aggregators, sorted (routing mode)
	pools       map[string][]transport.Session // idle pooled sessions per aggregator
	stopped     bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// obs holds this node's resolved metric children (obsmetrics.go).
	obs *selObs
}

// SelectorOptions configures optional selector behaviours.
type SelectorOptions struct {
	// Routing enables the routing-tier mode: pooled streamed sessions
	// toward aggregators, live-aggregator discovery from the Coordinator,
	// rendezvous route hints for tasks the assignment map has not learned
	// yet, and session draining when aggregators leave the live set. Off,
	// the selector forwards with one fabric call per request — the two
	// behaviours are wire-compatible, and the conformance suite runs every
	// server test under both (direct | via-selector).
	Routing bool
}

// NewSelector registers a selector node on the fabric and starts its map
// refresh loop (Appendix E.4 "Client Routing").
func NewSelector(name string, net transport.Fabric, coordinator string, timings Timings) *Selector {
	return NewSelectorWith(name, net, coordinator, timings, SelectorOptions{})
}

// NewSelectorWith is NewSelector with explicit options; see SelectorOptions.
func NewSelectorWith(name string, net transport.Fabric, coordinator string, timings Timings, opts SelectorOptions) *Selector {
	s := &Selector{
		name:        name,
		net:         net,
		coord:       coordinator,
		timings:     timings,
		opts:        opts,
		assignments: make(map[string]Assignment),
		pools:       make(map[string][]transport.Session),
		stop:        make(chan struct{}),
		obs:         newSelObs(name),
	}
	net.Register(name, s.handle)
	s.wg.Add(1)
	go s.refreshLoop()
	return s
}

// Stop halts the refresh loop, closes every pooled session, and
// unregisters the node. It is idempotent.
func (s *Selector) Stop() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.wg.Wait()
		s.net.Unregister(s.name)
		s.mu.Lock()
		s.stopped = true
		var toClose []transport.Session
		for agg, idle := range s.pools {
			toClose = append(toClose, idle...)
			delete(s.pools, agg)
		}
		s.mu.Unlock()
		for _, sess := range toClose {
			_ = sess.Close()
		}
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
// participate at another time").
func (s *Selector) checkin(req CheckinRequest) (any, error) {
	start := time.Now()
	resp, err := s.net.Call(s.name, s.coord, "assign-client", AssignClientRequest{
		ClientID:     req.ClientID,
		Capabilities: req.Capabilities,
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

	joinResp, err := s.callAgent(asg.Aggregator, "join",
		JoinRequest{TaskID: asg.TaskID, ClientID: req.ClientID, TraceID: req.TraceID})
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

// route forwards a session call to the owning aggregator, refreshing the
// assignment map once on failure (stale map after a task moved). In
// routing mode a map miss first tries the rendezvous owner over the live
// aggregator set — a fresh selector can route before its first map refresh
// lands, and during a failover storm the guess over the surviving set is
// exactly where the coordinator moved the dead aggregator's tasks
// (placement is rendezvous-consistent). The refreshed map stays the
// authority: after a refresh only its entry is trusted, so a genuinely
// unknown task still reports "no assignment".
func (s *Selector) route(req RouteRequest) (out any, err error) {
	start := time.Now()
	defer func() {
		s.obs.routeSeconds.Observe(time.Since(start).Seconds())
		errText := ""
		if err != nil {
			errText = err.Error()
		}
		s.obs.span(req.TraceID, "route/"+req.Method, req.TaskID, start, errText)
	}()
	if asg, ok := s.lookup(req.TaskID); ok {
		out, err := s.callAgent(asg.Aggregator, req.Method, req.Payload)
		if err == nil {
			return out, nil
		}
	} else if s.opts.Routing {
		if guess := placement.Owner(req.TaskID, s.agentList()); guess != "" {
			if out, err := s.callAgent(guess, req.Method, req.Payload); err == nil {
				return out, nil
			}
		}
	}
	// Stale or missing: refresh and retry once.
	if err := s.refreshMap(); err != nil {
		return nil, fmt.Errorf("selector %s: map refresh failed: %w", s.name, err)
	}
	if s.opts.Routing {
		_ = s.refreshAgents()
	}
	asg, ok := s.lookup(req.TaskID)
	if !ok {
		return nil, fmt.Errorf("selector %s: no assignment for task %q", s.name, req.TaskID)
	}
	return s.callAgent(asg.Aggregator, req.Method, req.Payload)
}

// callAgent performs one forwarded call to an aggregator: a plain fabric
// call in direct mode, a pooled streamed session in routing mode. A
// session that errors is closed instead of returned — the next call dials
// fresh, which is also how sessions pinned to a dead aggregator drain
// mid-flight.
func (s *Selector) callAgent(agg, method string, payload any) (any, error) {
	if !s.opts.Routing {
		return s.net.Call(s.name, agg, method, payload)
	}
	sess, err := s.checkoutSession(agg)
	if err != nil {
		return nil, err
	}
	out, err := sess.Call(method, payload)
	if err != nil {
		_ = sess.Close()
		return nil, err
	}
	s.returnSession(agg, sess)
	return out, nil
}

// checkoutSession pops an idle pooled session to agg, or opens a fresh one.
// The caller owns the session exclusively (Sessions are not safe for
// concurrent use) until returnSession or Close.
func (s *Selector) checkoutSession(agg string) (transport.Session, error) {
	s.mu.Lock()
	if idle := s.pools[agg]; len(idle) > 0 {
		sess := idle[len(idle)-1]
		s.pools[agg] = idle[:len(idle)-1]
		s.mu.Unlock()
		return sess, nil
	}
	s.mu.Unlock()
	return transport.OpenSession(s.net, s.name, agg)
}

// returnSession parks a healthy session for reuse — unless the selector
// stopped, the aggregator left the live set, or the pool is at its idle
// cap, in which case the session is closed.
func (s *Selector) returnSession(agg string, sess transport.Session) {
	s.mu.Lock()
	live := false
	for _, a := range s.agents {
		if a == agg {
			live = true
			break
		}
	}
	// Before the first list-agents refresh the live set is empty; treat
	// that as "unknown, keep" so bootstrap traffic still pools.
	if len(s.agents) == 0 {
		live = true
	}
	if !s.stopped && live && len(s.pools[agg]) < selectorMaxIdleSessions {
		s.pools[agg] = append(s.pools[agg], sess)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	_ = sess.Close()
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

// agentList returns a copy of the live aggregator set.
func (s *Selector) agentList() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.agents...)
}

func (s *Selector) refreshMap() error {
	resp, err := s.net.Call(s.name, s.coord, "map-request", nil)
	if err != nil {
		return err
	}
	m := resp.(MapResponse)
	if m.Assignments == nil {
		// An empty map arrives as nil over wire codecs that elide empty
		// containers (gob); learn() must still be able to write into it.
		m.Assignments = make(map[string]Assignment)
	}
	s.mu.Lock()
	s.assignments = m.Assignments
	s.mu.Unlock()
	return nil
}

// refreshAgents fetches the live aggregator set from the Coordinator and
// rebalances: idle sessions pooled toward aggregators that left the set
// are drained (closed), so a dead aggregator's connections don't linger
// until they error. Checked-out sessions drain themselves — their next
// call fails and callAgent closes them.
func (s *Selector) refreshAgents() error {
	resp, err := s.net.Call(s.name, s.coord, "list-agents", nil)
	if err != nil {
		return err
	}
	list := resp.(AgentListResponse).Agents
	live := make(map[string]bool, len(list))
	for _, a := range list {
		live[a] = true
	}
	s.mu.Lock()
	s.agents = list
	var toClose []transport.Session
	for agg, idle := range s.pools {
		if !live[agg] {
			toClose = append(toClose, idle...)
			delete(s.pools, agg)
		}
	}
	s.mu.Unlock()
	for _, sess := range toClose {
		_ = sess.Close()
	}
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
			if s.opts.Routing {
				_ = s.refreshAgents()
			}
		}
	}
}
