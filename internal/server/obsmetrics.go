package server

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/vecpool"
)

// Observability families for the control-plane tiers. Everything is
// registered on the process-global obs registry and labeled by node
// name, because one `papaya serve` process hosts a coordinator, N
// aggregators, and M selectors: the scrape stays one endpoint, the
// labels keep the tiers apart. Each tier resolves its labeled children
// once at construction (aggObs/selObs/coordObs), so hot paths touch only
// atomics.

// obsreg is the process-global registry every tier family lives on.
var obsreg = obs.Default()

var (
	famUploads = obs.Default().Counter("papaya_uploads_total",
		"Accepted (fully received) model uploads per aggregator.", "node")
	famUploadRejects = obs.Default().Counter("papaya_upload_rejects_total",
		"Uploads rejected or aborted before counting toward a step.", "node")
	famSessionsOpened = obs.Default().Counter("papaya_sessions_opened_total",
		"Virtual sessions opened by join.", "node")
	famSessionsClosed = obs.Default().Counter("papaya_sessions_closed_total",
		"Sessions closed by a clean path: completed upload, explicit fail, or task drop.", "node")
	famSessionsReaped = obs.Default().Counter("papaya_sessions_reaped_total",
		"Sessions torn down by the TTL reaper after the client went silent.", "node")
	famAggregateSteps = obs.Default().Counter("papaya_aggregate_steps_total",
		"Server optimizer steps taken.", "node")
	famNegotiations = obs.Default().Counter("papaya_compress_negotiations_total",
		"Report-time compression negotiation outcomes by chosen codec (\"raw\" = none).", "node", "codec")
	famChunkSeconds = obs.Default().Histogram("papaya_upload_chunk_seconds",
		"Latency of one upload-chunk accept (accumulate path).", "node")
	famFinishSeconds = obs.Default().Histogram("papaya_upload_finish_seconds",
		"Latency of finishing an upload: unmask/decode + fold into the aggregate.", "node")
	famStepSeconds = obs.Default().Histogram("papaya_aggregate_step_seconds",
		"Latency of one server optimizer step over the accumulated updates.", "node")
	famCheckinSeconds = obs.Default().Histogram("papaya_checkin_seconds",
		"Selector latency of one client check-in (assign + join round trips).", "node")
	famRouteSeconds = obs.Default().Histogram("papaya_route_seconds",
		"Selector latency of one routed in-session call.", "node")
	famCheckins = obs.Default().Counter("papaya_checkins_total",
		"Client check-ins by outcome (accepted | rejected | error).", "node", "outcome")
	famDPReleases = obs.Default().Counter("papaya_dp_releases_total",
		"Noised aggregate releases per aggregator; each spends privacy budget.", "node")
	famDPClipFraction = obs.Default().Histogram("papaya_dp_clip_fraction",
		"Pre-clip L2 norm over the clip bound per accepted DP upload (above 1 = clipped).", "node")
	famAssignments = obs.Default().Counter("papaya_coordinator_assignments_total",
		"Coordinator client assignments by outcome (assigned | no_demand | recovering).", "node", "outcome")
)

// registerDPEpsilonGauge exposes a DP task's cumulative epsilon as a
// lazily-read gauge. The value is stored as float64 bits under the task
// mutex at each release and read lock-free at scrape time; re-placing the
// task re-registers the same label tuple, which replaces the closure (the
// obs registry's restart semantics).
func registerDPEpsilonGauge(node, task string, read func() float64) {
	obsreg.GaugeFunc("papaya_dp_epsilon",
		"Cumulative epsilon spent by a DP task at its configured delta.",
		read, []string{"node", "task"}, node, task)
}

// registerPendingGauge exposes a task's coordinator-side count of clients
// assigned whose join has not answered yet (Section 6.2), read lazily at
// scrape time like papaya_dp_epsilon.
func registerPendingGauge(node, task string, read func() float64) {
	obsreg.GaugeFunc("papaya_coordinator_pending",
		"Clients assigned to the task whose join has not answered yet.",
		read, []string{"node", "task"}, node, task)
}

func init() {
	// Lease-leak visibility (obs satellite): the vecpool balance
	// counters as lazily-read gauges, process-wide like the pool
	// itself. A live node whose outstanding leases do not return to
	// ~zero between bursts is leaking.
	reg := obs.Default()
	reg.GaugeFunc("papaya_vecpool_outstanding_floats",
		"Float32 vector leases currently checked out of the process-wide pool.",
		func() float64 { return float64(vecpool.OutstandingFloats()) }, nil)
	reg.GaugeFunc("papaya_vecpool_outstanding_uints",
		"Uint32 vector leases currently checked out of the process-wide pool.",
		func() float64 { return float64(vecpool.OutstandingUints()) }, nil)
	reg.GaugeFunc("papaya_vecpool_foreign_puts",
		"Returned vectors that were not leased from the pool (monotonic; should stay 0).",
		func() float64 { return float64(vecpool.ForeignPuts()) }, nil)
}

// aggObs is one aggregator's resolved metric children plus its span
// bookkeeping identity; constructed once in NewAggregator.
type aggObs struct {
	node           string
	uploads        *metrics.Counter
	uploadRejects  *metrics.Counter
	sessionsOpened *metrics.Counter
	sessionsClosed *metrics.Counter
	sessionsReaped *metrics.Counter
	aggregateSteps *metrics.Counter
	chunkSeconds   *metrics.Histogram
	finishSeconds  *metrics.Histogram
	stepSeconds    *metrics.Histogram
	dpReleases     *metrics.Counter
	dpClipFraction *metrics.Histogram
}

func newAggObs(node string) *aggObs {
	return &aggObs{
		node:           node,
		uploads:        famUploads.CounterWith(node),
		uploadRejects:  famUploadRejects.CounterWith(node),
		sessionsOpened: famSessionsOpened.CounterWith(node),
		sessionsClosed: famSessionsClosed.CounterWith(node),
		sessionsReaped: famSessionsReaped.CounterWith(node),
		aggregateSteps: famAggregateSteps.CounterWith(node),
		chunkSeconds:   famChunkSeconds.HistogramWith(node),
		finishSeconds:  famFinishSeconds.HistogramWith(node),
		stepSeconds:    famStepSeconds.HistogramWith(node),
		dpReleases:     famDPReleases.CounterWith(node),
		dpClipFraction: famDPClipFraction.HistogramWith(node),
	}
}

// negotiated records one report-time compression negotiation outcome;
// cold path, so the labeled child is resolved per call.
func (o *aggObs) negotiated(codec string) {
	if codec == "" {
		codec = "raw"
	}
	famNegotiations.CounterWith(o.node, codec).Inc()
}

// span records one aggregator-side stage of a traced session.
func (o *aggObs) span(trace uint64, name, task string, session uint64, start time.Time, errText string) {
	obs.RecordSpan(trace, "aggregator", o.node, name, task, session, start, time.Since(start), errText)
}

// selObs is one selector's resolved metric children; constructed in
// NewSelector.
type selObs struct {
	node             string
	checkinSeconds   *metrics.Histogram
	routeSeconds     *metrics.Histogram
	checkinsAccepted *metrics.Counter
	checkinsRejected *metrics.Counter
	checkinsErrored  *metrics.Counter
}

func newSelObs(node string) *selObs {
	return &selObs{
		node:             node,
		checkinSeconds:   famCheckinSeconds.HistogramWith(node),
		routeSeconds:     famRouteSeconds.HistogramWith(node),
		checkinsAccepted: famCheckins.CounterWith(node, "accepted"),
		checkinsRejected: famCheckins.CounterWith(node, "rejected"),
		checkinsErrored:  famCheckins.CounterWith(node, "error"),
	}
}

// span records one selector-side stage of a traced session.
func (o *selObs) span(trace uint64, name, task string, start time.Time, errText string) {
	obs.RecordSpan(trace, "selector", o.node, name, task, 0, start, time.Since(start), errText)
}

// coordObs is the coordinator's resolved metric children; constructed in
// NewCoordinator.
type coordObs struct {
	assigned, noDemand, recovering *metrics.Counter
}

func newCoordObs(node string) *coordObs {
	return &coordObs{
		assigned:   famAssignments.CounterWith(node, "assigned"),
		noDemand:   famAssignments.CounterWith(node, "no_demand"),
		recovering: famAssignments.CounterWith(node, "recovering"),
	}
}
