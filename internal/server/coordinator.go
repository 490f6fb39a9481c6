package server

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/placement"
	"repro/internal/transport"
)

// ErrNoLiveAggregators is returned by create-task when placement is
// impossible because no aggregator has registered. Its message is part of
// the wire contract: application errors cross the HTTP fabric as text, so
// remote callers (e.g. `papaya serve -aggregators 0` waiting for agents)
// match on this exact string.
var ErrNoLiveAggregators = errors.New("coordinator: no live aggregators")

// Coordinator is the singleton control node (Section 4): it places tasks on
// Aggregators, pools demand, assigns clients to tasks, and drives failure
// recovery. There is exactly one live Coordinator; restarting it rebuilds
// state from aggregator reports (Appendix E.4 "the coordinator enters the
// recovery period to rebuild the current assignment map from aggregator
// reports").
type Coordinator struct {
	name    string
	net     transport.Fabric
	timings Timings
	rnd     *rand.Rand

	mu          sync.Mutex
	specs       map[string]TaskSpec
	assignments map[string]Assignment
	demand      map[string]int // pooled, from aggregator reports
	pending     map[string]int // assigned, join not yet answered (Section 6.2)
	lastReport  map[string]time.Time
	aggregators map[string]bool
	checkpoints map[string][]float32 // latest per-task model, for failover
	versions    map[string]int
	recovering  bool
	started     time.Time

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// obs holds this node's resolved metric children (obsmetrics.go).
	obs *coordObs
}

// NewCoordinator registers the coordinator on the fabric and starts its
// failure-detection loop. recovery=true models a restarted coordinator: it
// serves no client assignments until the recovery period elapses, while
// aggregator reports repopulate its state (Appendix E.4).
func NewCoordinator(name string, net transport.Fabric, timings Timings, seed int64, recovery bool) *Coordinator {
	c := &Coordinator{
		name:        name,
		net:         net,
		timings:     timings,
		rnd:         rand.New(rand.NewSource(seed)),
		specs:       make(map[string]TaskSpec),
		assignments: make(map[string]Assignment),
		demand:      make(map[string]int),
		pending:     make(map[string]int),
		lastReport:  make(map[string]time.Time),
		aggregators: make(map[string]bool),
		checkpoints: make(map[string][]float32),
		versions:    make(map[string]int),
		recovering:  recovery,
		started:     time.Now(),
		stop:        make(chan struct{}),
		obs:         newCoordObs(name),
	}
	net.Register(name, c.handle)
	c.wg.Add(1)
	go c.failureLoop()
	return c
}

// Stop halts background loops and unregisters the node. It is idempotent.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() {
		close(c.stop)
		c.wg.Wait()
		c.net.Unregister(c.name)
	})
}

func (c *Coordinator) handle(method string, payload any) (any, error) {
	switch method {
	case "register-aggregator":
		return c.registerAggregator(payload.(string))
	case "create-task":
		return c.createTask(payload.(TaskSpec))
	case "agg-report":
		return c.aggReport(payload.(AggReport))
	case "assign-client":
		return c.assignClient(payload.(AssignClientRequest))
	case "map-request":
		return c.mapRequest()
	case "list-agents":
		return c.listAgents()
	default:
		return nil, fmt.Errorf("coordinator: unknown method %q", method)
	}
}

func (c *Coordinator) registerAggregator(name string) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.aggregators[name] = true
	c.lastReport[name] = time.Now()
	return true, nil
}

// createTask places a new task via placeLocked (Section 6.3: "The
// Coordinator evenly distributes tasks among available Aggregators using
// the estimated workload of a task").
func (c *Coordinator) createTask(spec TaskSpec) (any, error) {
	c.mu.Lock()
	if _, dup := c.specs[spec.ID]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("coordinator: task %q already exists", spec.ID)
	}
	target := c.placeLocked(spec.ID)
	if target == "" {
		c.mu.Unlock()
		return nil, ErrNoLiveAggregators
	}
	c.specs[spec.ID] = spec
	asg := Assignment{TaskID: spec.ID, Aggregator: target, Seq: 1}
	c.assignments[spec.ID] = asg
	c.demand[spec.ID] = spec.Concurrency
	c.exposePendingLocked(spec.ID)
	c.mu.Unlock()

	_, err := c.net.Call(c.name, target, "assign-task",
		AssignTaskRequest{Spec: spec, Seq: asg.Seq})
	if err != nil {
		// A refused placement leaves no task behind, so the heartbeat does
		// not re-send it and the caller may create it again.
		c.mu.Lock()
		delete(c.specs, spec.ID)
		delete(c.assignments, spec.ID)
		delete(c.demand, spec.ID)
		c.mu.Unlock()
		return nil, fmt.Errorf("coordinator: placing task on %s: %w", target, err)
	}
	return asg, nil
}

// placeLocked picks the aggregator for a task: rendezvous hashing over the
// least-loaded live aggregators. Load (assigned task count — the paper
// uses concurrency x model size; counts are an adequate proxy at this
// scale) keeps tasks evenly spread (Section 6.3); rendezvous hashing over
// the tied candidates makes the choice a pure function of (task, live
// set), so a failover moves only the dead aggregator's tasks (Appendix
// E.4; internal/placement).
func (c *Coordinator) placeLocked(taskID string) string {
	load := make(map[string]int, len(c.aggregators))
	for name := range c.aggregators {
		load[name] = 0
	}
	for _, asg := range c.assignments {
		if _, live := load[asg.Aggregator]; live {
			load[asg.Aggregator]++
		}
	}
	minLoad := -1
	for _, l := range load {
		if minLoad < 0 || l < minLoad {
			minLoad = l
		}
	}
	candidates := make([]string, 0, len(load))
	for name, l := range load {
		if l == minLoad {
			candidates = append(candidates, name)
		}
	}
	return placement.Owner(taskID, candidates)
}

// aggReport ingests a heartbeat: refresh liveness, pool demand, learn about
// tasks (recovery), and instruct the aggregator to drop stale assignments.
// An assignment that names the reporting aggregator but is missing from its
// report is sent again, once per beat: the first assign-task was lost, or
// the aggregator restarted under its own name before it was declared dead.
// The re-send keeps the assignment's Seq, so assignTask ignores a duplicate.
func (c *Coordinator) aggReport(r AggReport) (any, error) {
	c.mu.Lock()
	var resend []AssignTaskRequest
	for taskID, asg := range c.assignments {
		if _, reported := r.Tasks[taskID]; asg.Aggregator == r.Aggregator && !reported {
			resend = append(resend, AssignTaskRequest{
				Spec:       c.specs[taskID],
				Seq:        asg.Seq,
				Checkpoint: c.checkpoints[taskID],
				Version:    c.versions[taskID],
			})
		}
	}
	c.aggregators[r.Aggregator] = true
	c.lastReport[r.Aggregator] = time.Now()

	var drops []string
	for taskID, tr := range r.Tasks {
		asg, known := c.assignments[taskID]
		switch {
		case !known && c.recovering:
			// Recovery: adopt the aggregator's view, including the spec, so
			// client assignment resumes without operator intervention.
			c.assignments[taskID] = Assignment{TaskID: taskID, Aggregator: r.Aggregator, Seq: tr.Seq}
			c.specs[taskID] = tr.Spec
			c.demand[taskID] = tr.Demand
			c.exposePendingLocked(taskID)
		case !known:
			// Unknown task outside recovery: stale leftover; drop it.
			drops = append(drops, taskID)
		case asg.Aggregator != r.Aggregator || asg.Seq > tr.Seq:
			// Stale assignment: the task has moved (E.4).
			drops = append(drops, taskID)
		default:
			c.demand[taskID] = tr.Demand
			// Backstop: answers a dead selector never reported would
			// otherwise hold the task's pending count up for good.
			c.pending[taskID] = 0
			// Retain the newest checkpoint for failover.
			if tr.Version >= c.versions[taskID] && tr.Checkpoint != nil {
				c.checkpoints[taskID] = tr.Checkpoint
				c.versions[taskID] = tr.Version
			}
		}
	}
	if c.recovering && time.Since(c.started) > c.timings.RecoveryPeriod {
		c.recovering = false
	}
	c.mu.Unlock()

	for _, req := range resend {
		// Best effort, like checkFailures: the next beat retries.
		_, _ = c.net.Call(c.name, r.Aggregator, "assign-task", req)
	}
	return AggDirective{DropTasks: drops}, nil
}

// assignClient implements Section 6.2's three steps: build the eligible task
// list (capability match and positive demand), pick one at random, and
// account for the not-yet-confirmed assignment. It first releases one
// pending assignment per join the selector has heard answered, so demand
// minus pending steers by the check-ins still in flight; the aggregator's
// join stays the hard concurrency gate (Appendix E.1).
func (c *Coordinator) assignClient(req AssignClientRequest) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range req.Answered {
		if c.pending[id] > 0 {
			c.pending[id]--
		}
	}
	if c.recovering && time.Since(c.started) <= c.timings.RecoveryPeriod {
		c.obs.recovering.Inc()
		return AssignClientResponse{}, nil // no assignments during recovery
	}
	caps := make(map[string]bool, len(req.Capabilities))
	for _, cp := range req.Capabilities {
		caps[cp] = true
	}
	var eligible []string
	for id, spec := range c.specs {
		if spec.Capability != "" && !caps[spec.Capability] {
			continue
		}
		if c.demand[id]-c.pending[id] > 0 {
			eligible = append(eligible, id)
		}
	}
	if len(eligible) == 0 {
		c.obs.noDemand.Inc()
		return AssignClientResponse{}, nil
	}
	taskID := eligible[c.rnd.Intn(len(eligible))]
	c.pending[taskID]++
	c.obs.assigned.Inc()
	asg := c.assignments[taskID]
	return AssignClientResponse{
		Assigned:   true,
		TaskID:     taskID,
		Aggregator: asg.Aggregator,
		Seq:        asg.Seq,
	}, nil
}

// exposePendingLocked registers the task's papaya_coordinator_pending
// gauge, read under c.mu at scrape time.
func (c *Coordinator) exposePendingLocked(taskID string) {
	registerPendingGauge(c.name, taskID, func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.pending[taskID])
	})
}

func (c *Coordinator) mapRequest() (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]Assignment, len(c.assignments))
	for id, asg := range c.assignments {
		out[id] = asg
	}
	return MapResponse{Assignments: out}, nil
}

// listAgents reports the live aggregator set, sorted: the node set
// placeLocked hashes over (`papaya fleet` polls it to time a rejoin).
func (c *Coordinator) listAgents() (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.aggregators))
	for name := range c.aggregators {
		out = append(out, name)
	}
	sort.Strings(out)
	return AgentListResponse{Agents: out}, nil
}

// failureLoop detects dead aggregators by missed heartbeats and reassigns
// their tasks (E.4 "coordinator detects failures after several missed
// heartbeats and reassigns all tasks to other aggregators").
func (c *Coordinator) failureLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.timings.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.checkFailures()
		}
	}
}

func (c *Coordinator) checkFailures() {
	type move struct {
		req    AssignTaskRequest
		target string
	}
	var moves []move

	c.mu.Lock()
	now := time.Now()
	for name, last := range c.lastReport {
		if c.aggregators[name] && now.Sub(last) > c.timings.FailureDeadline {
			delete(c.aggregators, name) // name is dead
			delete(c.lastReport, name)
		}
	}
	// Reassign every task whose aggregator is not live, not only the tasks
	// of one that died this tick: a task orphaned while no aggregator was
	// live must move to the first one that registers.
	for taskID, asg := range c.assignments {
		if c.aggregators[asg.Aggregator] {
			continue
		}
		target := c.placeLocked(taskID)
		if target == "" {
			continue // no live aggregator; retry next tick
		}
		newAsg := Assignment{TaskID: taskID, Aggregator: target, Seq: asg.Seq + 1}
		c.assignments[taskID] = newAsg
		moves = append(moves, move{
			req: AssignTaskRequest{
				Spec:       c.specs[taskID],
				Seq:        newAsg.Seq,
				Checkpoint: c.checkpoints[taskID],
				Version:    c.versions[taskID],
			},
			target: target,
		})
	}
	c.mu.Unlock()

	for _, m := range moves {
		// Best effort; placement is retried via the same path if the target
		// also fails.
		_, _ = c.net.Call(c.name, m.target, "assign-task", m.req)
	}
}
