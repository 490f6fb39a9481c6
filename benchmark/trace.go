package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/transport"
)

// Tracing from outside the program. Spans are recorded by wrappers that
// live in this directory only: a decorator on the serving fabric whose
// Register wraps every handler and whose Call wraps every outbound
// control-plane call, a decorator on the client fabric that spans
// OpenSession / Call / SendNoAck while keeping StreamFabric and
// ElidingSession intact, and an Executor wrapper. Spans of one
// participation share its trace ID, read from the exported request types.
// They stay in memory and are written out when the run ends. Spans inside
// the program (ROADMAP item 5a) are a later issue.

// Span layers. parentOf names the layer whose span causes each one.
const (
	layerSession  = "client.session" // one RunOnce
	layerTrain    = "client.train"
	layerOpen     = "client.open"
	layerCall     = "client.call" // acknowledged call: the client blocks on it
	layerSend     = "client.send" // elided (no-ack) send
	layerSelector = "selector"
	layerSelCall  = "selector.call" // selector -> coordinator / aggregator
	layerCoord    = "coordinator"
	layerAgg      = "aggregator"
)

var parentOf = map[string]string{
	layerTrain: layerSession, layerOpen: layerSession, layerCall: layerSession, layerSend: layerSession,
	layerSelector: layerCall + "|" + layerSend, layerSelCall: layerSelector,
	layerCoord: layerSelCall, layerAgg: layerSelCall,
}

// span is one recorded interval; times are nanoseconds since the
// tracer's epoch (monotonic clock).
type span struct {
	Layer string `json:"layer"`
	Node  string `json:"node"`
	Name  string `json:"name"`
	Trace uint64 `json:"trace"`
	// Session is the aggregator's session ID on spans whose request
	// carries it; snapshot resolves it to the trace ID.
	Session uint64 `json:"session,omitempty"`
	Start   int64  `json:"start_ns"`
	Dur     int64  `json:"dur_ns"`
}

func (s span) end() int64 { return s.Start + s.Dur }

type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// byClient resolves the one request that carries only a client ID
	// (assign-client): the check-in that caused it names both.
	byClient map[int64]uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byClient: make(map[int64]uint64)}
}

func (t *tracer) add(layer, node, name string, trace uint64, start time.Time, dur time.Duration) {
	s := span{Layer: layer, Node: node, Name: name, Trace: trace, Start: int64(start.Sub(t.epoch)), Dur: int64(dur)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record is add for server-side spans: the IDs and the span name come
// from the request payload. The chunk path only appends; nothing is
// looked up while recording.
func (t *tracer) record(layer, node, method string, payload any, start time.Time) {
	s := span{Layer: layer, Node: node, Name: spanName(method, payload), Start: int64(start.Sub(t.epoch)), Dur: int64(time.Since(start))}
	var client int64
	switch m := payload.(type) {
	case server.CheckinRequest:
		s.Trace = m.TraceID
	case server.JoinRequest:
		s.Trace = m.TraceID
	case server.RouteRequest:
		s.Trace = m.TraceID
		s.Session, _ = sessionOf(m.Payload)
	case server.AssignClientRequest:
		client = m.ClientID
	default:
		s.Session, _ = sessionOf(payload)
	}
	t.mu.Lock()
	if client != 0 {
		s.Trace = t.byClient[client]
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// learn notes, before a check-in's handler runs, which trace the client's
// assign-client call belongs to.
func (t *tracer) learn(payload any) {
	if m, ok := payload.(server.CheckinRequest); ok {
		t.mu.Lock()
		t.byClient[m.ClientID] = m.TraceID
		t.mu.Unlock()
	}
}

// snapshot copies the spans recorded so far (server goroutines keep
// recording heartbeats after the drivers stop) and resolves every span
// that knows only its session ID through the routed spans that know both.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	bySession := make(map[uint64]uint64)
	for _, s := range spans {
		if s.Trace != 0 && s.Session != 0 {
			bySession[s.Session] = s.Trace
		}
	}
	for i := range spans {
		if spans[i].Trace == 0 {
			spans[i].Trace = bySession[spans[i].Session]
		}
	}
	return spans
}

// spanName names a call after the in-session method it carries; the Done
// chunk, which triggers the aggregation path, gets its own name.
func spanName(method string, payload any) string {
	switch m := payload.(type) {
	case server.RouteRequest:
		return spanName(m.Method, m.Payload)
	case server.UploadChunk:
		if m.Done {
			return "upload-final"
		}
	}
	return method
}

func sessionOf(payload any) (uint64, bool) {
	switch m := payload.(type) {
	case server.DownloadRequest:
		return m.SessionID, true
	case server.ReportRequest:
		return m.SessionID, true
	case server.UploadChunk:
		return m.SessionID, true
	case server.FailRequest:
		return m.SessionID, true
	}
	return 0, false
}

func nodeLayer(node string) string {
	switch {
	case node == "coordinator":
		return layerCoord
	case strings.HasPrefix(node, "agg-"):
		return layerAgg
	case strings.HasPrefix(node, "sel-"):
		return layerSelector
	}
	return "other"
}

// servingFabric decorates the fabric the control plane is built on.
type servingFabric struct {
	fabricConn
	t *tracer
}

func (t *tracer) serving(f fabricConn) transport.Fabric { return &servingFabric{f, t} }

func (f *servingFabric) Register(name string, h transport.Handler) {
	layer := nodeLayer(name)
	f.fabricConn.Register(name, func(method string, payload any) (any, error) {
		f.t.learn(payload)
		start := time.Now()
		out, err := h(method, payload)
		f.t.record(layer, name, method, payload, start)
		return out, err
	})
}

func (f *servingFabric) Call(from, to, method string, payload any) (any, error) {
	start := time.Now()
	out, err := f.fabricConn.Call(from, to, method, payload)
	f.t.record(nodeLayer(from)+".call", from, method, payload, start)
	return out, err
}

// clientFabric decorates the fabric the devices talk through. It stays a
// transport.StreamFabric, and its sessions stay ElidingSessions when the
// inner one is, so the client runtime negotiates exactly what it would
// without the wrapper.
type clientFabric struct {
	fabricConn
	t *tracer
}

func (t *tracer) clientSide(f fabricConn) transport.Fabric { return &clientFabric{f, t} }

var _ transport.StreamFabric = (*clientFabric)(nil)

func (f *clientFabric) OpenSession(from, to string) (transport.Session, error) {
	start := time.Now()
	inner, err := transport.OpenSession(f.fabricConn, from, to)
	if err != nil {
		return nil, err
	}
	s := &tracedSession{inner: inner, t: f.t, node: from, openStart: start, openDur: time.Since(start)}
	if es, ok := inner.(transport.ElidingSession); ok {
		return &tracedEliding{s, es}, nil
	}
	return s, nil
}

type tracedSession struct {
	inner     transport.Session
	t         *tracer
	node      string
	trace     uint64 // learned from the check-in this session carries first
	openStart time.Time
	openDur   time.Duration
}

func (s *tracedSession) Call(method string, payload any) (any, error) {
	start := time.Now()
	out, err := s.inner.Call(method, payload)
	dur := time.Since(start)
	if cr, ok := payload.(server.CheckinRequest); ok {
		s.trace = cr.TraceID
		s.t.add(layerOpen, s.node, "open-session", s.trace, s.openStart, s.openDur)
	}
	s.t.add(layerCall, s.node, spanName(method, payload), s.trace, start, dur)
	return out, err
}

func (s *tracedSession) Close() error { return s.inner.Close() }

type tracedEliding struct {
	*tracedSession
	es transport.ElidingSession
}

func (s *tracedEliding) ElidesAcks() bool { return s.es.ElidesAcks() }

func (s *tracedEliding) SendNoAck(method string, payload any) error {
	start := time.Now()
	err := s.es.SendNoAck(method, payload)
	s.t.add(layerSend, s.node, spanName(method, payload), s.trace, start, time.Since(start))
	return err
}

// timedExec wraps a device's executor; the driver turns its last timing
// into the train span once RunOnce has returned the trace ID.
type timedExec struct {
	inner client.Executor
	start time.Time
	dur   time.Duration
}

func (e *timedExec) Train(params []float32, examples [][]int) ([]float32, float64) {
	e.start = time.Now()
	delta, loss := e.inner.Train(params, examples)
	e.dur = time.Since(e.start)
	return delta, loss
}

// session records a completed participation and its train span.
func (t *tracer) session(dev *device, trace uint64, start time.Time, dur time.Duration) {
	node := "client"
	t.add(layerSession, node, "session", trace, start, dur)
	if dev.exec != nil && dev.exec.dur > 0 {
		t.add(layerTrain, node, "train", trace, dev.exec.start, dev.exec.dur)
	}
}

// --- span arithmetic ---

type interval struct{ a, b int64 }

// unionLen is the length of [lo, hi] covered by at least one interval;
// overlapping intervals count once.
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.a < lo {
			iv.a = lo
		}
		if iv.b > hi {
			iv.b = hi
		}
		if iv.b > iv.a {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].a < clipped[j].a })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.a > end {
			end = iv.a
		}
		if iv.b > end {
			total += iv.b - end
			end = iv.b
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, children []span) int64 {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = interval{c.Start, c.end()}
	}
	return parent.Dur - unionLen(ivs, parent.Start, parent.end())
}

// Rows of the reconciliation report: where a session's blocking time
// goes, as self times, so the rows add up to the session.
const (
	rowClientSelf  = "client.self"
	rowTrain       = "nn.train"
	rowHop         = "transport.hop"        // client call (and session open) not covered by the selector's handler
	rowSend        = "transport.send_noack" // client time inside elided sends
	rowInnerHop    = "transport.inner_hop"  // selector call not covered by the callee's handler
	rowSelCheckin  = "server.selector.checkin_self"
	rowSelRoute    = "server.selector.route_self"
	rowAssign      = "server.coordinator.assign"
	rowJoin        = "server.aggregator.join"
	rowDownload    = "server.aggregator.download"
	rowReport      = "server.aggregator.report"
	rowChunkBlock  = "server.aggregator.chunk_blocking"
	rowFinish      = "server.aggregator.finish"
	rowServerOther = "server.other"
)

var reportRows = []string{
	rowClientSelf, rowTrain, rowHop, rowSend, rowInnerHop, rowSelCheckin, rowSelRoute,
	rowAssign, rowJoin, rowDownload, rowReport, rowChunkBlock, rowFinish, rowServerOther,
}

// analysis is the traced run folded per completed session (times in ms).
type analysis struct {
	Sessions      int                `json:"sessions"`
	SessionMeanMs float64            `json:"session_mean_ms"`
	SessionP99Ms  float64            `json:"session_p99_ms"`
	Blocking      map[string]float64 `json:"blocking_ms_per_session"` // reportRows
	Stages        map[string]float64 `json:"client_stage_ms"`         // checkin, download, report, upload (inclusive)
	ChunkMs       float64            `json:"aggregator_chunk_ms_per_call"`
	AggReportMs   float64            `json:"coordinator_agg_report_ms_per_call"`
	// Unattributed is the share of mean session time no row names.
	Unattributed float64 `json:"unattributed_share"`
}

// handlerRow maps a coordinator/aggregator handler span to its row.
func handlerRow(s span) string {
	switch {
	case s.Layer == layerCoord && s.Name == "assign-client":
		return rowAssign
	case s.Layer == layerAgg && s.Name == "join":
		return rowJoin
	case s.Layer == layerAgg && s.Name == "download":
		return rowDownload
	case s.Layer == layerAgg && s.Name == "report":
		return rowReport
	case s.Layer == layerAgg && s.Name == "upload-chunk":
		return rowChunkBlock
	case s.Layer == layerAgg && s.Name == "upload-final":
		return rowFinish
	}
	return rowServerOther
}

// analyze folds every completed session that ran inside [from, to].
func analyze(spans []span, from, to int64) analysis {
	byTrace := make(map[uint64][]span)
	var chunkNs, chunkN, reportNs, reportN int64
	for _, s := range spans {
		if s.Layer == layerCoord && s.Name == "agg-report" {
			reportNs, reportN = reportNs+s.Dur, reportN+1
		}
		if s.Trace != 0 {
			byTrace[s.Trace] = append(byTrace[s.Trace], s)
		}
	}
	out := analysis{Blocking: make(map[string]float64), Stages: make(map[string]float64)}
	var totalNs int64
	var durs []float64
	for _, ss := range byTrace {
		var sess *span
		for i := range ss {
			if ss[i].Layer == layerSession {
				sess = &ss[i]
			}
		}
		if sess == nil || sess.Start < from || sess.end() > to {
			continue
		}
		out.Sessions++
		totalNs += sess.Dur
		durs = append(durs, float64(sess.Dur)/1e6)

		var clientSide, sel, selCall, deep []span
		for _, s := range ss {
			switch s.Layer {
			case layerTrain, layerOpen, layerCall, layerSend:
				clientSide = append(clientSide, s)
			case layerSelector:
				sel = append(sel, s)
			case layerSelCall:
				selCall = append(selCall, s)
			case layerCoord, layerAgg:
				deep = append(deep, s)
				if s.Layer == layerAgg && s.Name == "upload-chunk" {
					chunkNs, chunkN = chunkNs+s.Dur, chunkN+1
				}
			}
		}
		out.Blocking[rowClientSelf] += float64(selfTime(*sess, clientSide))
		upStart, upEnd := int64(-1), int64(0)
		for _, c := range clientSide {
			if c.Name == "upload-chunk" || c.Name == "upload-final" {
				if upStart < 0 || c.Start < upStart {
					upStart = c.Start
				}
				if c.end() > upEnd {
					upEnd = c.end()
				}
			}
			switch c.Layer {
			case layerTrain:
				out.Blocking[rowTrain] += float64(c.Dur)
			case layerSend:
				out.Blocking[rowSend] += float64(c.Dur)
			case layerOpen:
				out.Blocking[rowHop] += float64(c.Dur)
				out.Stages["checkin"] += float64(c.Dur)
			case layerCall:
				if c.Name == "checkin" || c.Name == "download" || c.Name == "report" {
					out.Stages[c.Name] += float64(c.Dur)
				}
				// While the client blocks on c, the deepest span of this
				// session active at each instant owns that instant.
				lo, hi := c.Start, c.end()
				var d3, d23, d123 []interval
				for _, s := range deep {
					d3 = append(d3, interval{s.Start, s.end()})
					if l := unionLen([]interval{{s.Start, s.end()}}, lo, hi); l > 0 {
						out.Blocking[handlerRow(s)] += float64(l)
					}
				}
				d23 = append(d23, d3...)
				for _, s := range selCall {
					d23 = append(d23, interval{s.Start, s.end()})
				}
				d123 = append(d123, d23...)
				for _, s := range sel {
					d123 = append(d123, interval{s.Start, s.end()})
				}
				u3, u23, u123 := unionLen(d3, lo, hi), unionLen(d23, lo, hi), unionLen(d123, lo, hi)
				out.Blocking[rowInnerHop] += float64(u23 - u3)
				if c.Name == "checkin" {
					out.Blocking[rowSelCheckin] += float64(u123 - u23)
				} else {
					out.Blocking[rowSelRoute] += float64(u123 - u23)
				}
				out.Blocking[rowHop] += float64(c.Dur - u123)
			}
		}
		if upStart >= 0 {
			out.Stages["upload"] += float64(upEnd - upStart)
		}
	}
	if out.Sessions == 0 {
		return out
	}
	n := float64(out.Sessions) * 1e6 // ns sums -> ms per session
	var named float64
	for k := range out.Blocking {
		named += out.Blocking[k]
		out.Blocking[k] /= n
	}
	for k := range out.Stages {
		out.Stages[k] /= n
	}
	out.SessionMeanMs = float64(totalNs) / n
	out.SessionP99Ms = percentile(durs, 0.99)
	out.Unattributed = 1 - named/float64(totalNs)
	if chunkN > 0 {
		out.ChunkMs = float64(chunkNs) / float64(chunkN) / 1e6
	}
	if reportN > 0 {
		out.AggReportMs = float64(reportNs) / float64(reportN) / 1e6
	}
	return out
}

// traceFile is benchmark/out/trace-<workload>.json.
type traceFile struct {
	Meta     runMeta           `json:"meta"`
	ParentOf map[string]string `json:"parent_of"`
	Analysis analysis          `json:"analysis"`
	// Spans holds every span of the first sessions of the traced window
	// (all sessions feed Analysis; the file keeps a readable sample).
	Spans []span `json:"spans"`
}

const traceFileSessions = 40

func writeTrace(dir string, meta runMeta, a analysis, spans []span, from int64) error {
	var starts []span
	for _, s := range spans {
		if s.Layer == layerSession && s.Start >= from {
			starts = append(starts, s)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i].Start < starts[j].Start })
	if len(starts) > traceFileSessions {
		starts = starts[:traceFileSessions]
	}
	keep := make(map[uint64]bool, len(starts))
	for _, s := range starts {
		keep[s.Trace] = true
	}
	doc := traceFile{Meta: meta, ParentOf: parentOf, Analysis: a}
	for _, s := range spans {
		if keep[s.Trace] {
			doc.Spans = append(doc.Spans, s)
		}
	}
	sort.SliceStable(doc.Spans, func(i, j int) bool { return doc.Spans[i].Start < doc.Spans[j].Start })
	blob, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+meta.Workload+".json"), append(blob, '\n'), 0o644)
}
