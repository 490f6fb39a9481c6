package core

import (
	"repro/internal/fedopt"
	"repro/internal/lmdata"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/round"
	"repro/internal/simclock"
)

// Run executes one federated training run and returns its Result. The model,
// corpus, and population together define the workload; cfg selects the
// algorithm and scale. Run panics on invalid configuration (experiments are
// built statically, so misconfiguration is a programming error).
func Run(model nn.Model, corpus *lmdata.Corpus, pop *population.Population, cfg Config) *Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := newRunner(model, corpus, pop, cfg)
	return r.run()
}

type outcome int

const (
	outSuccess outcome = iota
	outDropout
	outTimeout
)

// session is one client participation attempt.
type session struct {
	id           int64
	client       population.Client
	startVersion int
	execTime     float64
	outcome      outcome
	finishEv     *simclock.Event
	round        int // sync only

	// Parallel-engine state, set only for sessions that train (outSuccess
	// with training enabled): the shared model snapshot the client
	// downloaded, the computed delta, and the completion signal the shard
	// consumer waits on. done is closed by the worker after delta is ready.
	snap  *paramsSnap
	delta []float32
	done  chan struct{}
}

type runner struct {
	cfg    Config
	model  nn.Model
	corpus *lmdata.Corpus
	pop    *population.Population

	eng   *simclock.Engine
	rnd   *rng.RNG    // selection / timing stream
	cur   *paramsSnap // current server model snapshot (nil when NoTraining)
	pool  *nn.Pool
	train *trainEngine
	stage *round.Stage // the aggregator's release stage, default rule (nil when NoTraining)

	version       int
	serverUpdates int
	commTrips     int64
	received      int // updates accepted into the buffer since last release
	discarded     int64
	dropouts      int64
	timeouts      int64

	nextSessionID int64
	inflight      map[int64]*session
	halted        bool

	// sync state
	round          int
	roundReceived  int
	roundStart     float64
	roundDurations []float64

	res           *Result
	execTimeSum   float64
	execTimeCount int64
}

func newRunner(model nn.Model, corpus *lmdata.Corpus, pop *population.Population, cfg Config) *runner {
	r := &runner{
		cfg:      cfg,
		model:    model,
		corpus:   corpus,
		pop:      pop,
		eng:      simclock.New(),
		rnd:      rng.New(cfg.Seed),
		inflight: make(map[int64]*session),
		res:      &Result{Algorithm: cfg.Algorithm, Goal: cfg.AggregationGoal},
	}
	if !cfg.NoTraining {
		r.cur = newSnap(model.InitParams(r.rnd.Split("init")))
		r.pool = nn.NewPool(model.NumParams())
		r.stage = round.New(model.NumParams(), cfg.AggregationGoal, cfg.AggShards,
			fedopt.DefaultAggregation(), cfg.Server, cfg.DP)
		r.train = newTrainEngine(model, corpus, cfg, r.stage, r.pool)
	}
	return r
}

func (r *runner) run() *Result {
	if r.train != nil {
		defer r.train.stop()
	}
	switch r.cfg.Algorithm {
	case Async:
		for i := 0; i < r.cfg.Concurrency; i++ {
			// The initial fleet ramps in over the selection path.
			delay := r.rnd.Float64() * r.cfg.SyncStartStagger
			r.eng.After(delay, func(*simclock.Engine) { r.startSession(0) })
		}
	case Sync:
		r.startRound()
	}

	if r.cfg.MaxSimTime > 0 {
		r.eng.RunUntil(r.cfg.MaxSimTime)
	} else {
		r.eng.Run()
	}

	r.res.ServerUpdates = r.serverUpdates
	r.res.CommTrips = r.commTrips
	r.res.Discarded = r.discarded
	r.res.Dropouts = r.dropouts
	r.res.Timeouts = r.timeouts
	r.res.SimSeconds = r.eng.Now()
	if r.cur != nil {
		// The final snapshot's storage is handed to the caller; the
		// runner's reference is never released, so it cannot be recycled.
		r.res.FinalParams = r.cur.data
	}
	r.res.Workers = r.cfg.Workers
	r.res.RoundDurations = r.roundDurations
	if r.execTimeCount > 0 {
		r.res.MeanClientExecTime = r.execTimeSum / float64(r.execTimeCount)
	}
	if len(r.res.LossCurve) > 0 {
		r.res.FinalLoss = r.res.LossCurve[len(r.res.LossCurve)-1].V
	}
	if r.stage != nil && r.stage.DP != nil {
		r.res.DPEpsilon = r.stage.DP.Epsilon()
		r.res.DPDelta = r.stage.DP.Delta()
	}
	return r.res
}

// recordUtilization appends the current active-client count when tracing is
// enabled.
func (r *runner) recordUtilization() {
	if !r.cfg.RecordUtilization {
		return
	}
	r.res.Utilization = append(r.res.Utilization,
		metrics.Point{T: r.eng.Now(), V: float64(len(r.inflight))})
}

// startSession selects a fresh client and schedules its completion. round is
// meaningful only for Sync.
func (r *runner) startSession(round int) {
	if r.halted {
		return
	}
	if r.cfg.Algorithm == Sync && round != r.round {
		return // the round this client was selected for has already closed
	}
	c := r.pop.Sample(r.rnd)
	s := &session{
		id:           r.nextSessionID,
		client:       c,
		startVersion: r.version,
		execTime:     r.pop.ExecTime(c, r.rnd),
		round:        round,
	}
	r.nextSessionID++

	// Decide the participation outcome up front; the event fires at the
	// moment the outcome becomes known to the server.
	fireAt := s.execTime
	s.outcome = outSuccess
	if r.rnd.Bernoulli(c.DropoutProb) {
		s.outcome = outDropout
		fireAt = s.execTime * (0.1 + 0.8*r.rnd.Float64())
	} else if s.execTime > r.pop.Timeout() {
		s.outcome = outTimeout
		fireAt = r.pop.Timeout()
	}

	if r.train != nil && s.outcome == outSuccess {
		// The client "downloads" the current model by retaining its
		// snapshot; local training is submitted to the worker pool only if
		// the upload is accepted at finish time, so sessions that drop
		// out, time out, or get discarded (staleness aborts, round-close
		// over-selection) cost no training compute — exactly matching the
		// serial implementation's work, just off the event loop.
		s.snap = r.cur
		s.snap.retain()
	}

	r.inflight[s.id] = s
	r.recordUtilization()
	s.finishEv = r.eng.After(fireAt, func(*simclock.Engine) { r.finishSession(s) })
}

// replaceAfterSelection starts a successor client once the selection path
// (Selector check-in, Coordinator assignment) completes.
func (r *runner) replaceAfterSelection(round int) {
	if r.halted {
		return
	}
	delay := 0.0
	if r.cfg.SelectionDelayMean > 0 {
		delay = r.rnd.Exp(1 / r.cfg.SelectionDelayMean)
	}
	r.eng.After(delay, func(*simclock.Engine) { r.startSession(round) })
}

func (r *runner) finishSession(s *session) {
	if r.halted {
		return
	}
	delete(r.inflight, s.id)
	r.recordUtilization()

	switch s.outcome {
	case outDropout:
		r.dropouts++
		r.replaceAfterSelection(s.round)
		return
	case outTimeout:
		r.timeouts++
		r.replaceAfterSelection(s.round)
		return
	}

	r.execTimeSum += s.execTime
	r.execTimeCount++

	staleness := r.version - s.startVersion
	if r.cfg.Algorithm == Async && r.cfg.MaxStaleness > 0 && staleness > r.cfg.MaxStaleness {
		// Appendix E.1: the server aborts updates beyond max staleness.
		r.discarded++
		if s.snap != nil {
			s.snap.release(r.pool)
		}
		r.replaceAfterSelection(s.round)
		return
	}

	// The update is received by the server.
	r.commTrips++
	r.recordParticipant(s, staleness)

	if !r.cfg.NoTraining {
		// The server's default rule weights the update, as on the networked
		// aggregator. A Sync update is never stale (closing a round
		// discards its stragglers), so its staleness factor is 1.
		n := s.client.NumExamples
		if r.cfg.DisableExampleWeighting {
			n = 1
		}
		w := r.stage.Rule.Weight(n, staleness)
		// The update is accepted: train it on the worker pool (against the
		// snapshot downloaded at start, with randomness keyed on session
		// ID) and enqueue the weighted add on the session's shard, where
		// the consumer waits for the delta. Adds apply in the order this
		// event loop enqueues them; the loop tracks the received count
		// itself (it must decide the release point deterministically; the
		// buffer's own count lags behind).
		s.done = make(chan struct{})
		r.train.submit(s)
		r.train.submitAdd(s, w)
		r.received++
		// Async releases when the goal is met; Sync releases when the round
		// closes (below).
		if r.cfg.Algorithm == Async && r.received >= r.cfg.AggregationGoal {
			r.serverStep()
		}
	} else if r.cfg.Algorithm == Async {
		// Systems-only accounting: a server update every K received.
		if r.commTrips%int64(r.cfg.AggregationGoal) == 0 {
			r.version++
			r.serverUpdates++
			r.abortStale()
		}
	}

	switch r.cfg.Algorithm {
	case Async:
		r.replaceAfterSelection(0)
	case Sync:
		r.roundReceived++
		if r.roundReceived >= r.cfg.AggregationGoal {
			r.closeRound()
		}
	}

	r.checkBudgets()
}

// serverStep flushes the shard queues and runs the release stage onto a
// fresh copy-on-write snapshot. This is the only point where the event
// loop waits on the parallel engine; in-flight clients keep training
// against the snapshot they downloaded. A release the epsilon budget
// refuses halts the run, as a budget-exhausted server task stops
// releasing: the buffered updates stay unreleased.
func (r *runner) serverStep() {
	r.train.flush()
	next := r.pool.Get()
	copy(next, r.cur.data)
	if !r.stage.Release(next, nil) {
		r.pool.Put(next)
		r.halt()
		return
	}
	old := r.cur
	r.cur = newSnap(next)
	old.release(r.pool)
	r.received = 0
	r.version++
	r.serverUpdates++
	if r.cfg.Algorithm == Async {
		r.abortStale()
	}
	r.maybeEval()
}

// abortStale aborts in-flight sessions whose staleness already exceeds the
// limit (Appendix E.2: "After every server model update, the aggregator
// aborts clients whose staleness is larger than maximum staleness").
func (r *runner) abortStale() {
	if r.cfg.MaxStaleness <= 0 {
		return
	}
	for id, s := range r.inflight {
		if r.version-s.startVersion > r.cfg.MaxStaleness {
			r.eng.Cancel(s.finishEv)
			delete(r.inflight, id)
			r.discarded++
			if s.snap != nil {
				s.snap.release(r.pool)
			}
			r.replaceAfterSelection(s.round)
		}
	}
	r.recordUtilization()
}

// maybeEval evaluates the server model on the held-out set per the
// configured cadence and applies the target-loss stop condition.
func (r *runner) maybeEval() {
	if len(r.cfg.EvalSeqs) == 0 || r.cfg.EvalEvery == 0 {
		return
	}
	if r.serverUpdates%r.cfg.EvalEvery != 0 {
		return
	}
	loss := r.model.Loss(r.cur.data, r.cfg.EvalSeqs)
	r.res.LossCurve = append(r.res.LossCurve, metrics.Point{T: r.eng.Now(), V: loss})
	if r.cfg.TargetLoss > 0 && loss <= r.cfg.TargetLoss && !r.res.TargetReached {
		r.res.TargetReached = true
		r.res.TimeToTarget = r.eng.Now()
		r.halt()
	}
}

func (r *runner) checkBudgets() {
	if r.halted {
		return
	}
	if r.cfg.MaxServerUpdates > 0 && r.serverUpdates >= r.cfg.MaxServerUpdates {
		r.halt()
	}
	if r.cfg.MaxClientUpdates > 0 && r.commTrips >= r.cfg.MaxClientUpdates {
		r.halt()
	}
}

func (r *runner) halt() {
	r.halted = true
	r.eng.Halt()
}

func (r *runner) recordParticipant(s *session, staleness int) {
	if r.cfg.RecordParticipants <= 0 ||
		len(r.res.ParticipantExecTime) >= r.cfg.RecordParticipants {
		return
	}
	r.res.ParticipantExecTime = append(r.res.ParticipantExecTime, s.execTime)
	r.res.ParticipantExamples = append(r.res.ParticipantExamples, float64(s.client.NumExamples))
	r.res.StalenessSamples = append(r.res.StalenessSamples, float64(staleness))
}

// --- Sync round machinery ---

func (r *runner) startRound() {
	if r.halted {
		return
	}
	r.roundReceived = 0
	r.roundStart = r.eng.Now()
	for i := 0; i < r.cfg.Concurrency; i++ {
		round := r.round
		delay := r.rnd.Float64() * r.cfg.SyncStartStagger
		r.eng.After(delay, func(*simclock.Engine) { r.startSession(round) })
	}
}

// closeRound fires when the aggregation goal is met: aggregate, step, abort
// the still-running cohort remainder (over-selection discards), and launch
// the next round.
func (r *runner) closeRound() {
	r.roundDurations = append(r.roundDurations, r.eng.Now()-r.roundStart)

	// Abort everything still in flight for this round: these are the
	// over-selection discards that bias SyncFL (Section 7.4).
	for id, s := range r.inflight {
		r.eng.Cancel(s.finishEv)
		delete(r.inflight, id)
		r.discarded++
		if s.snap != nil {
			s.snap.release(r.pool)
		}
	}
	r.recordUtilization()

	if !r.cfg.NoTraining {
		r.serverStep()
	} else {
		r.version++
		r.serverUpdates++
	}
	r.round++
	r.checkBudgets()
	if r.halted {
		return
	}
	r.eng.After(r.cfg.RoundSetupDelay, func(*simclock.Engine) { r.startRound() })
}
