package server

// The wire layout of every message internal/server puts on the network:
// internal/server owns the message types, so it owns their encoding too.
// Each message states its layout once, as a field walk over a wire.Fields
// cursor — fixed field order, varint integers, length-prefixed strings and
// bytes, bulk little-endian vectors, a presence byte before each optional
// nested value, maps in sorted-key order. Its AppendBinary runs the walk in
// append mode and its registered decoder (wire.go) runs it in decode mode;
// a relaying selector runs UploadChunk's walk in skip mode, validating the
// chunk's vectors and byte fields but leaving them bytes. Reading modes
// check every declared length against the rest of the frame before
// allocating, so a hostile frame cannot buy a huge decode.
//
// Only the aggregator's UploadChunk decoder leases its vectors from
// internal/vecpool (the transport returns them after the handler has copied
// what it keeps: wire.BufferLease). Every other vector — checkpoints,
// InitParams, TaskInfo.Params, a downloaded model — decodes into a plain
// allocation the receiver may keep. A download is encoded once per model
// version, not once per request (modelVersion).

import (
	"slices"

	"repro/internal/attest"
	"repro/internal/dh"
	"repro/internal/dp"
	"repro/internal/merklelog"
	"repro/internal/secagg"
	"repro/internal/transport/wire"
	"repro/internal/vecpool"
)

// present walks the presence byte of an optional nested value, allocating
// it when a frame carries one.
func present[T any](f *wire.Fields, p **T) bool {
	ok := *p != nil
	f.Bool(&ok)
	if ok && *p == nil {
		*p = new(T)
	}
	return ok
}

// sortedKeys appends m's keys to dst in order: maps encode in sorted-key
// order, so equal maps always encode to equal bytes.
func sortedKeys[V any](dst []string, m map[string]V) []string {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// --- CheckinRequest ---

func (r *CheckinRequest) fields(f *wire.Fields) {
	f.Varint(&r.ClientID)
	f.Strings(&r.Capabilities)
	f.Uvarint(&r.TraceID)
}

// AppendBinary implements wire.BinaryMessage.
func (r CheckinRequest) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDCheckinRequest)
	r.fields(&f)
	return f.Appended()
}

func decodeCheckinRequest(b []byte) (any, error) {
	var r CheckinRequest
	f := wire.DecodeFields(b)
	r.fields(&f)
	return r, f.Done()
}

// --- CheckinResponse ---

func (r *CheckinResponse) fields(f *wire.Fields) {
	f.Bool(&r.Accepted)
	f.String(&r.Reason)
	f.String(&r.TaskID)
	f.String(&r.Aggregator)
	f.Uvarint(&r.SessionID)
	f.Int(&r.Version)
	f.Uvarint(&r.TraceID)
	f.Int(&r.RetryAfterMs)
}

// AppendBinary implements wire.BinaryMessage.
func (r CheckinResponse) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDCheckinResponse)
	r.fields(&f)
	return f.Appended()
}

func decodeCheckinResponse(b []byte) (any, error) {
	var r CheckinResponse
	f := wire.DecodeFields(b)
	r.fields(&f)
	return r, f.Done()
}

// --- JoinRequest ---

func (r *JoinRequest) fields(f *wire.Fields) {
	f.String(&r.TaskID)
	f.Varint(&r.ClientID)
	f.Uvarint(&r.TraceID)
}

// AppendBinary implements wire.BinaryMessage.
func (r JoinRequest) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDJoinRequest)
	r.fields(&f)
	return f.Appended()
}

func decodeJoinRequest(b []byte) (any, error) {
	var r JoinRequest
	f := wire.DecodeFields(b)
	r.fields(&f)
	return r, f.Done()
}

// --- JoinResponse ---

func (r *JoinResponse) fields(f *wire.Fields) {
	f.Bool(&r.Accepted)
	f.String(&r.Reason)
	f.Uvarint(&r.SessionID)
	f.Int(&r.Version)
	f.Int(&r.RetryAfterMs)
}

// AppendBinary implements wire.BinaryMessage.
func (r JoinResponse) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDJoinResponse)
	r.fields(&f)
	return f.Appended()
}

func decodeJoinResponse(b []byte) (any, error) {
	var r JoinResponse
	f := wire.DecodeFields(b)
	r.fields(&f)
	return r, f.Done()
}

// --- DownloadRequest ---

func (r *DownloadRequest) fields(f *wire.Fields) {
	f.String(&r.TaskID)
	f.Uvarint(&r.SessionID)
}

// AppendBinary implements wire.BinaryMessage.
func (r DownloadRequest) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDDownloadRequest)
	r.fields(&f)
	return f.Appended()
}

func decodeDownloadRequest(b []byte) (any, error) {
	var r DownloadRequest
	f := wire.DecodeFields(b)
	r.fields(&f)
	return r, f.Done()
}

// --- DownloadResponse ---

// fields: the model vector ships as one bulk little-endian copy — the
// download half of the serving hot path.
func (r *DownloadResponse) fields(f *wire.Fields) {
	f.Float32s(&r.Params)
	f.Int(&r.Version)
}

// AppendBinary implements wire.BinaryMessage.
func (r DownloadResponse) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDDownloadResponse)
	r.fields(&f)
	return f.Appended()
}

func decodeDownloadResponse(b []byte) (any, error) {
	var r DownloadResponse
	f := wire.DecodeFields(b)
	r.fields(&f)
	return r, f.Done()
}

// modelVersion is one published model version: the version number and its
// download response, encoded once as a complete wire.Binary response frame
// when the version is published, then served to every client that
// downloads it (wire.EncodedResponse). It is immutable.
type modelVersion struct {
	version int
	frame   []byte
}

// newModelVersion encodes the download response for params at version.
func newModelVersion(params []float32, version int) *modelVersion {
	frame, err := wire.Binary{}.AppendResponse(make([]byte, 0, 4*len(params)+32),
		&wire.Response{Payload: DownloadResponse{Params: params, Version: version}})
	if err != nil {
		panic("server: DownloadResponse is not registered: " + err.Error())
	}
	return &modelVersion{version: version, frame: frame}
}

// ResponseFrame implements wire.EncodedResponse.
func (m *modelVersion) ResponseFrame() []byte { return m.frame }

// --- ReportRequest ---

func (r *ReportRequest) fields(f *wire.Fields) {
	f.String(&r.TaskID)
	f.Uvarint(&r.SessionID)
	f.Strings(&r.Compress)
}

// AppendBinary implements wire.BinaryMessage.
func (r ReportRequest) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDReportRequest)
	r.fields(&f)
	return f.Appended()
}

func decodeReportRequest(b []byte) (any, error) {
	var r ReportRequest
	f := wire.DecodeFields(b)
	r.fields(&f)
	return r, f.Done()
}

// --- ReportResponse ---

// fields: the SecAgg material (bundle and trust) follows exactly when
// SecAggEnabled is set.
func (r *ReportResponse) fields(f *wire.Fields) {
	f.Bool(&r.OK)
	f.String(&r.Reason)
	f.Int(&r.ChunkSize)
	f.Int(&r.CurrentVersion)
	f.String(&r.Compress)
	f.Float64(&r.DPClip)
	f.Float64(&r.DPLocalNoise)
	f.Bool(&r.SecAggEnabled)
	if r.SecAggEnabled {
		if present(f, &r.SecAggBundle) {
			bundleFields(f, r.SecAggBundle)
		}
		trustFields(f, &r.SecAggTrust)
	}
}

// AppendBinary implements wire.BinaryMessage.
func (r ReportResponse) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDReportResponse)
	r.fields(&f)
	return f.Appended()
}

func decodeReportResponse(b []byte) (any, error) {
	var r ReportResponse
	f := wire.DecodeFields(b)
	r.fields(&f)
	return r, f.Done()
}

func bundleFields(f *wire.Fields, b *secagg.InitialBundle) {
	dhInitialFields(f, &b.DH)
	f.Bytes(&b.DHVerifyKey)
	quoteFields(f, &b.Quote)
	f.Hash((*[32]byte)(&b.LogRoot))
	f.Uvarint(&b.LogSize)
	f.Uvarint(&b.LeafIndex)
	n := f.Count(len(b.Inclusion), merklelog.HashSize)
	if f.Decoding() && n > 0 {
		b.Inclusion = make([]merklelog.Hash, n)
	}
	for i := 0; i < n; i++ {
		f.Hash((*[32]byte)(&b.Inclusion[i]))
	}
}

func dhInitialFields(f *wire.Fields, m *dh.InitialMessage) {
	f.Uvarint(&m.Index)
	f.Bytes(&m.PublicKey)
	f.Bytes(&m.Signature)
}

func quoteFields(f *wire.Fields, q *attest.Quote) {
	f.Hash(&q.BinaryHash)
	f.Hash(&q.ParamsHash)
	f.Hash(&q.ReportData)
	f.Bytes(&q.Signature)
}

func trustFields(f *wire.Fields, t *secagg.ClientTrust) {
	f.Bytes((*[]byte)(&t.Collateral))
	f.Hash((*[32]byte)(&t.LogRoot))
	f.Uvarint(&t.LogSize)
	secAggParamsFields(f, &t.Params)
}

func secAggParamsFields(f *wire.Fields, p *secagg.Params) {
	f.Int(&p.VecLen)
	f.Int(&p.Threshold)
	f.Float64(&p.Scale)
	f.Bool(&p.OneShot)
}

// --- UploadChunk ---

// Flag bits in an UploadChunk's flag byte.
const (
	chunkFlagDone   = 1 << 0
	chunkFlagData   = 1 << 1
	chunkFlagMasked = 1 << 2
	chunkFlagPacked = 1 << 3
	chunkFlagSecAgg = 1 << 4
)

// fields walks the hottest message on the serving path. One flag byte
// says which optional fields follow, so an absent field costs one bit.
func (c *UploadChunk) fields(f *wire.Fields) {
	f.String(&c.TaskID)
	f.Uvarint(&c.SessionID)
	f.Int(&c.Offset)
	f.Int(&c.NumExamples)
	var flags byte
	if c.Done {
		flags |= chunkFlagDone
	}
	if len(c.Data) > 0 {
		flags |= chunkFlagData
	}
	if len(c.Masked) > 0 {
		flags |= chunkFlagMasked
	}
	if len(c.Packed) > 0 {
		flags |= chunkFlagPacked
	}
	if c.SecAggIndex != 0 || len(c.SecAggCompleting) > 0 || len(c.SecAggEncSeed) > 0 {
		flags |= chunkFlagSecAgg
	}
	f.Byte(&flags)
	c.Done = flags&chunkFlagDone != 0
	if flags&chunkFlagData != 0 {
		f.Float32s(&c.Data)
	}
	if flags&chunkFlagMasked != 0 {
		f.Uint32s(&c.Masked)
	}
	if flags&chunkFlagPacked != 0 {
		f.Bytes(&c.Packed)
	}
	if flags&chunkFlagSecAgg != 0 {
		f.Uvarint(&c.SecAggIndex)
		f.Bytes(&c.SecAggCompleting)
		f.Bytes(&c.SecAggEncSeed)
	}
}

// AppendBinary implements wire.BinaryMessage. A chunk decoded for relay
// appends the body it arrived with.
func (c UploadChunk) AppendBinary(dst []byte) []byte {
	if c.relayed != nil {
		return append(append(dst, binIDUploadChunk), c.relayed...)
	}
	f := wire.AppendFields(dst, binIDUploadChunk)
	c.fields(&f)
	return f.Appended()
}

// decodeUploadChunk is the aggregator's decode: the vectors are leased from
// vecpool, and every lease is returned if the frame turns out malformed.
func decodeUploadChunk(b []byte) (any, error) {
	var c UploadChunk
	f := wire.DecodeFields(b)
	f.Lease(vecpool.GetFloats, vecpool.GetUints)
	c.fields(&f)
	if err := f.Done(); err != nil {
		c.ReleaseBinaryBuffers()
		return nil, err
	}
	return c, nil
}

// relayChunk is the selector's decode of a chunk inside a route envelope:
// the walk in skip mode reads the scalar fields for routing and tracing,
// and the chunk keeps the body it came from to relay as bytes.
func relayChunk(body []byte) (UploadChunk, error) {
	c := UploadChunk{relayed: body}
	f := wire.SkipFields(body)
	c.fields(&f)
	return c, f.Done()
}

// ReleaseBinaryBuffers implements wire.BufferLease: returns the leased
// Data/Masked vectors after the aggregator has copied them into the
// session's reassembly buffer. Safe on any decode origin — slices that did
// not come from the pool (in-memory payloads never pass here) are
// discarded by the pool's capacity check.
func (c UploadChunk) ReleaseBinaryBuffers() {
	vecpool.PutFloats(c.Data)
	vecpool.PutUints(c.Masked)
}

// --- UploadResponse ---

func (r *UploadResponse) fields(f *wire.Fields) {
	f.Bool(&r.OK)
	f.String(&r.Reason)
}

// AppendBinary implements wire.BinaryMessage.
func (r UploadResponse) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDUploadResponse)
	r.fields(&f)
	return f.Appended()
}

func decodeUploadResponse(b []byte) (any, error) {
	var r UploadResponse
	f := wire.DecodeFields(b)
	r.fields(&f)
	return r, f.Done()
}

// --- FailRequest ---

func (r *FailRequest) fields(f *wire.Fields) {
	f.String(&r.TaskID)
	f.Uvarint(&r.SessionID)
}

// AppendBinary implements wire.BinaryMessage.
func (r FailRequest) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDFailRequest)
	r.fields(&f)
	return f.Appended()
}

func decodeFailRequest(b []byte) (any, error) {
	var r FailRequest
	f := wire.DecodeFields(b)
	r.fields(&f)
	return r, f.Done()
}

// --- RouteRequest ---

// fields walks the envelope's own fields. The nested payload follows them
// and runs to the end of the frame, so TraceID rides before it.
func (r *RouteRequest) fields(f *wire.Fields) {
	f.String(&r.TaskID)
	f.String(&r.Method)
	f.Uvarint(&r.TraceID)
}

// AppendBinary implements wire.BinaryMessage: the forwarded payload is
// encoded with the same tag scheme as a top-level payload, so a routed
// UploadChunk stays on the zero-reflection path end to end.
func (r RouteRequest) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDRouteRequest)
	r.fields(&f)
	out, err := wire.AppendPayloadBinary(f.Appended(), r.Payload)
	if err != nil {
		// An unregistered nested payload cannot encode; emit an ID no
		// decoder knows rather than panicking mid-encode. Reaching this is
		// a registry bug that the wire round-trip tests catch.
		return append(f.Appended(), 255)
	}
	return out
}

func decodeRouteRequest(b []byte) (any, error) {
	var r RouteRequest
	f := wire.DecodeFields(b)
	r.fields(&f)
	rest, err := f.Rest()
	if err != nil {
		return nil, err
	}
	// Only a selector decodes a route envelope, and it relays the nested
	// call: a chunk's vectors stay the bytes they arrived as.
	if len(rest) > 0 && rest[0] == binIDUploadChunk {
		r.Payload, err = relayChunk(rest[1:])
	} else {
		r.Payload, err = wire.DecodePayloadBinary(rest)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// ReleaseBinaryBuffers implements wire.BufferLease by delegating to the
// forwarded payload.
func (r RouteRequest) ReleaseBinaryBuffers() {
	if lease, ok := r.Payload.(wire.BufferLease); ok {
		lease.ReleaseBinaryBuffers()
	}
}

// --- TaskInfo ---

func (r *TaskInfo) fields(f *wire.Fields) {
	f.Int(&r.Version)
	f.Varint(&r.Updates)
	f.Int(&r.Active)
	f.Float32s(&r.Params)
	f.String((*string)(&r.Mode))
	f.Bool(&r.DPEnabled)
	f.Float64(&r.DPEpsilon)
	f.Float64(&r.DPDelta)
	f.Int(&r.DPReleases)
	f.Float64(&r.DPBudget)
	f.Bool(&r.DPExhausted)
}

// AppendBinary implements wire.BinaryMessage.
func (r TaskInfo) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDTaskInfo)
	r.fields(&f)
	return f.Appended()
}

func decodeTaskInfo(b []byte) (any, error) {
	var r TaskInfo
	f := wire.DecodeFields(b)
	r.fields(&f)
	return r, f.Done()
}

// --- TaskSpec ---

// fields: a SecAgg deployment crosses as its recipe, the public
// parameters. The decoded deployment is inert until secagg.Deployment.Live
// launches an enclave from it.
func (s *TaskSpec) fields(f *wire.Fields) {
	f.String(&s.ID)
	f.String((*string)(&s.Mode))
	f.Int(&s.NumParams)
	f.Int(&s.Concurrency)
	f.Int(&s.AggregationGoal)
	f.Int(&s.MaxStaleness)
	f.String(&s.Capability)
	f.Float32s(&s.InitParams)
	f.Int(&s.AggShards)
	f.Int(&s.UploadChunkSize)
	if present(f, &s.SecAgg) {
		secAggParamsFields(f, &s.SecAgg.Params)
	}
	f.String(&s.Compress)
	f.String(&s.Aggregation)
	f.Float64(&s.AggParam)
	if present(f, &s.DP) {
		dpConfigFields(f, s.DP)
	}
}

// AppendBinary implements wire.BinaryMessage.
func (s TaskSpec) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDTaskSpec)
	s.fields(&f)
	return f.Appended()
}

func decodeTaskSpec(b []byte) (any, error) {
	var s TaskSpec
	f := wire.DecodeFields(b)
	s.fields(&f)
	return s, f.Done()
}

func dpConfigFields(f *wire.Fields, c *dp.Config) {
	f.Float64(&c.Clip)
	f.Float64(&c.NoiseMultiplier)
	f.Float64(&c.Delta)
	f.Uvarint(&c.Seed)
	f.Float64(&c.EpsilonBudget)
	f.Bool(&c.Local)
}

// --- Assignment ---

func (a *Assignment) fields(f *wire.Fields) {
	f.String(&a.TaskID)
	f.String(&a.Aggregator)
	f.Uvarint(&a.Seq)
}

// AppendBinary implements wire.BinaryMessage.
func (a Assignment) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDAssignment)
	a.fields(&f)
	return f.Appended()
}

func decodeAssignment(b []byte) (any, error) {
	var a Assignment
	f := wire.DecodeFields(b)
	a.fields(&f)
	return a, f.Done()
}

// --- AggReport ---

func (r *AggReport) fields(f *wire.Fields) {
	f.String(&r.Aggregator)
	var scratch [8]string
	keys := sortedKeys(scratch[:0], r.Tasks)
	n := f.Count(len(keys), 2)
	if f.Decoding() && n > 0 {
		r.Tasks = make(map[string]TaskReport, n)
	}
	for i := 0; i < n; i++ {
		var k string
		var t TaskReport
		if !f.Decoding() {
			k, t = keys[i], r.Tasks[keys[i]]
		}
		f.String(&k)
		t.fields(f)
		if f.Decoding() {
			r.Tasks[k] = t
		}
	}
}

func (t *TaskReport) fields(f *wire.Fields) {
	t.Spec.fields(f)
	f.Uvarint(&t.Seq)
	f.Int(&t.ActiveClients)
	f.Int(&t.Demand)
	f.Int(&t.Version)
	f.Varint(&t.Updates)
	f.Float32s(&t.Checkpoint)
}

// AppendBinary implements wire.BinaryMessage.
func (r AggReport) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDAggReport)
	r.fields(&f)
	return f.Appended()
}

func decodeAggReport(b []byte) (any, error) {
	var r AggReport
	f := wire.DecodeFields(b)
	r.fields(&f)
	return r, f.Done()
}

// --- AggDirective ---

func (r *AggDirective) fields(f *wire.Fields) { f.Strings(&r.DropTasks) }

// AppendBinary implements wire.BinaryMessage.
func (r AggDirective) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDAggDirective)
	r.fields(&f)
	return f.Appended()
}

func decodeAggDirective(b []byte) (any, error) {
	var r AggDirective
	f := wire.DecodeFields(b)
	r.fields(&f)
	return r, f.Done()
}

// --- AssignTaskRequest ---

func (r *AssignTaskRequest) fields(f *wire.Fields) {
	r.Spec.fields(f)
	f.Uvarint(&r.Seq)
	f.Float32s(&r.Checkpoint)
	f.Int(&r.Version)
}

// AppendBinary implements wire.BinaryMessage.
func (r AssignTaskRequest) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDAssignTaskRequest)
	r.fields(&f)
	return f.Appended()
}

func decodeAssignTaskRequest(b []byte) (any, error) {
	var r AssignTaskRequest
	f := wire.DecodeFields(b)
	r.fields(&f)
	return r, f.Done()
}

// --- AssignClientRequest ---

func (r *AssignClientRequest) fields(f *wire.Fields) {
	f.Varint(&r.ClientID)
	f.Strings(&r.Capabilities)
	f.Strings(&r.Answered)
}

// AppendBinary implements wire.BinaryMessage.
func (r AssignClientRequest) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDAssignClientRequest)
	r.fields(&f)
	return f.Appended()
}

func decodeAssignClientRequest(b []byte) (any, error) {
	var r AssignClientRequest
	f := wire.DecodeFields(b)
	r.fields(&f)
	return r, f.Done()
}

// --- AssignClientResponse ---

func (r *AssignClientResponse) fields(f *wire.Fields) {
	f.Bool(&r.Assigned)
	f.String(&r.TaskID)
	f.String(&r.Aggregator)
	f.Uvarint(&r.Seq)
}

// AppendBinary implements wire.BinaryMessage.
func (r AssignClientResponse) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDAssignClientResp)
	r.fields(&f)
	return f.Appended()
}

func decodeAssignClientResponse(b []byte) (any, error) {
	var r AssignClientResponse
	f := wire.DecodeFields(b)
	r.fields(&f)
	return r, f.Done()
}

// --- MapResponse ---

func (r *MapResponse) fields(f *wire.Fields) {
	var scratch [8]string
	keys := sortedKeys(scratch[:0], r.Assignments)
	n := f.Count(len(keys), 2)
	if f.Decoding() && n > 0 {
		r.Assignments = make(map[string]Assignment, n)
	}
	for i := 0; i < n; i++ {
		var k string
		var a Assignment
		if !f.Decoding() {
			k, a = keys[i], r.Assignments[keys[i]]
		}
		f.String(&k)
		a.fields(f)
		if f.Decoding() {
			r.Assignments[k] = a
		}
	}
}

// AppendBinary implements wire.BinaryMessage.
func (r MapResponse) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDMapResponse)
	r.fields(&f)
	return f.Appended()
}

func decodeMapResponse(b []byte) (any, error) {
	var r MapResponse
	f := wire.DecodeFields(b)
	r.fields(&f)
	return r, f.Done()
}

// --- AgentListResponse ---

func (r *AgentListResponse) fields(f *wire.Fields) { f.Strings(&r.Agents) }

// AppendBinary implements wire.BinaryMessage.
func (r AgentListResponse) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDAgentListResponse)
	r.fields(&f)
	return f.Appended()
}

func decodeAgentListResponse(b []byte) (any, error) {
	var r AgentListResponse
	f := wire.DecodeFields(b)
	r.fields(&f)
	return r, f.Done()
}

// --- ReconfigureRequest ---

func (r *ReconfigureRequest) fields(f *wire.Fields) {
	f.String(&r.TaskID)
	f.String((*string)(&r.Mode))
	f.Int(&r.AggregationGoal)
	f.Int(&r.MaxStaleness)
}

// AppendBinary implements wire.BinaryMessage.
func (r ReconfigureRequest) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, binIDReconfigureRequest)
	r.fields(&f)
	return f.Appended()
}

func decodeReconfigureRequest(b []byte) (any, error) {
	var r ReconfigureRequest
	f := wire.DecodeFields(b)
	r.fields(&f)
	return r, f.Done()
}
