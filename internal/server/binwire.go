package server

// The hand-rolled wire forms for the hot client-session messages
// (wire.Binary's hot half). internal/server owns these message types, so
// it owns their hand-rolled encoding too: fixed field
// order, varint integers, length-prefixed strings, bulk little-endian
// vector copies — no reflection anywhere. Cold control-plane messages
// (task specs, heartbeat reports) intentionally have no binary form; they
// ride wire.Binary's in-frame gob fallback, which keeps the hand-rolled
// surface exactly the per-session hot path: check-in, join, download,
// report, chunked upload, and the selector route envelope around them.
//
// Decoders lease model-sized vectors (UploadChunk.Data/Masked) from
// internal/vecpool; the transport returns them after the handler has
// copied what it keeps (wire.BufferLease). Inside a route envelope, which
// only a relaying selector decodes, a chunk's vectors are validated and
// left as bytes instead. Every decoder validates
// declared lengths against the remaining frame before allocating, so a
// hostile frame cannot buy a huge decode.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/secagg"
	"repro/internal/transport/wire"
	"repro/internal/vecpool"
)

// appendFloat64 encodes a float64 as its IEEE-754 bit pattern in a
// uvarint; the DP fields are the first float64 scalars on the hot wire.
func appendFloat64(dst []byte, f float64) []byte {
	return wire.AppendUvarint(dst, math.Float64bits(f))
}

// readFloat64 reverses appendFloat64.
func readFloat64(b []byte) (float64, []byte, error) {
	bits, rest, err := wire.ReadUvarint(b)
	return math.Float64frombits(bits), rest, err
}

// Binary message IDs (wire.RegisterBinary). Stable wire constants: never
// renumber — retire an ID and allocate a fresh one instead.
const (
	binIDCheckinRequest   = 16
	binIDCheckinResponse  = 17
	binIDJoinRequest      = 18
	binIDJoinResponse     = 19
	binIDDownloadRequest  = 20
	binIDDownloadResponse = 21
	binIDReportRequest    = 22
	binIDReportResponse   = 23
	binIDUploadChunk      = 24
	binIDUploadResponse   = 25
	binIDFailRequest      = 26
	binIDRouteRequest     = 27
	binIDTaskInfo         = 28
)

func init() {
	wire.RegisterBinary(binIDCheckinRequest, decodeCheckinRequestBinary)
	wire.RegisterBinary(binIDCheckinResponse, decodeCheckinResponseBinary)
	wire.RegisterBinary(binIDJoinRequest, decodeJoinRequestBinary)
	wire.RegisterBinary(binIDJoinResponse, decodeJoinResponseBinary)
	wire.RegisterBinary(binIDDownloadRequest, decodeDownloadRequestBinary)
	wire.RegisterBinary(binIDDownloadResponse, decodeDownloadResponseBinary)
	wire.RegisterBinary(binIDReportRequest, decodeReportRequestBinary)
	wire.RegisterBinary(binIDReportResponse, decodeReportResponseBinary)
	wire.RegisterBinary(binIDUploadChunk, decodeUploadChunkBinary)
	wire.RegisterBinary(binIDUploadResponse, decodeUploadResponseBinary)
	wire.RegisterBinary(binIDFailRequest, decodeFailRequestBinary)
	wire.RegisterBinary(binIDRouteRequest, decodeRouteRequestBinary)
	wire.RegisterBinary(binIDTaskInfo, decodeTaskInfoBinary)
}

// errTrailing rejects frames with bytes left over after a complete
// message: a binary frame either parses exactly or not at all.
var errTrailing = errors.New("server: trailing bytes after binary message")

// gobBlob encodes a nested structure (SecAgg report material) as an opaque
// byte field inside a binary message.
func gobBlob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// gobUnblob reverses gobBlob.
func gobUnblob(b []byte, into any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(into)
}

func done(rest []byte) error {
	if len(rest) != 0 {
		return errTrailing
	}
	return nil
}

// --- CheckinRequest ---

// BinaryID implements wire.BinaryMessage.
func (CheckinRequest) BinaryID() byte { return binIDCheckinRequest }

// AppendBinary implements wire.BinaryMessage.
func (r CheckinRequest) AppendBinary(dst []byte) []byte {
	dst = wire.AppendVarint(dst, r.ClientID)
	dst = wire.AppendStringSlice(dst, r.Capabilities)
	return wire.AppendUvarint(dst, r.TraceID)
}

func decodeCheckinRequestBinary(b []byte) (any, error) {
	var r CheckinRequest
	var err error
	if r.ClientID, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	if r.Capabilities, b, err = wire.ReadStringSlice(b); err != nil {
		return nil, err
	}
	if r.TraceID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	return r, done(b)
}

// --- CheckinResponse ---

// BinaryID implements wire.BinaryMessage.
func (CheckinResponse) BinaryID() byte { return binIDCheckinResponse }

// AppendBinary implements wire.BinaryMessage.
func (r CheckinResponse) AppendBinary(dst []byte) []byte {
	dst = wire.AppendBool(dst, r.Accepted)
	dst = wire.AppendString(dst, r.Reason)
	dst = wire.AppendString(dst, r.TaskID)
	dst = wire.AppendString(dst, r.Aggregator)
	dst = wire.AppendUvarint(dst, r.SessionID)
	dst = wire.AppendVarint(dst, int64(r.Version))
	dst = wire.AppendUvarint(dst, r.TraceID)
	return wire.AppendVarint(dst, int64(r.RetryAfterMs))
}

func decodeCheckinResponseBinary(b []byte) (any, error) {
	var r CheckinResponse
	var err error
	var v int64
	if r.Accepted, b, err = wire.ReadBool(b); err != nil {
		return nil, err
	}
	if r.Reason, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	if r.TaskID, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	if r.Aggregator, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	if r.SessionID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	r.Version = int(v)
	if r.TraceID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	r.RetryAfterMs = int(v)
	return r, done(b)
}

// --- JoinRequest ---

// BinaryID implements wire.BinaryMessage.
func (JoinRequest) BinaryID() byte { return binIDJoinRequest }

// AppendBinary implements wire.BinaryMessage.
func (r JoinRequest) AppendBinary(dst []byte) []byte {
	dst = wire.AppendString(dst, r.TaskID)
	dst = wire.AppendVarint(dst, r.ClientID)
	return wire.AppendUvarint(dst, r.TraceID)
}

func decodeJoinRequestBinary(b []byte) (any, error) {
	var r JoinRequest
	var err error
	if r.TaskID, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	if r.ClientID, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	if r.TraceID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	return r, done(b)
}

// --- JoinResponse ---

// BinaryID implements wire.BinaryMessage.
func (JoinResponse) BinaryID() byte { return binIDJoinResponse }

// AppendBinary implements wire.BinaryMessage.
func (r JoinResponse) AppendBinary(dst []byte) []byte {
	dst = wire.AppendBool(dst, r.Accepted)
	dst = wire.AppendString(dst, r.Reason)
	dst = wire.AppendUvarint(dst, r.SessionID)
	dst = wire.AppendVarint(dst, int64(r.Version))
	return wire.AppendVarint(dst, int64(r.RetryAfterMs))
}

func decodeJoinResponseBinary(b []byte) (any, error) {
	var r JoinResponse
	var err error
	var v int64
	if r.Accepted, b, err = wire.ReadBool(b); err != nil {
		return nil, err
	}
	if r.Reason, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	if r.SessionID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	r.Version = int(v)
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	r.RetryAfterMs = int(v)
	return r, done(b)
}

// --- DownloadRequest ---

// BinaryID implements wire.BinaryMessage.
func (DownloadRequest) BinaryID() byte { return binIDDownloadRequest }

// AppendBinary implements wire.BinaryMessage.
func (r DownloadRequest) AppendBinary(dst []byte) []byte {
	dst = wire.AppendString(dst, r.TaskID)
	return wire.AppendUvarint(dst, r.SessionID)
}

func decodeDownloadRequestBinary(b []byte) (any, error) {
	var r DownloadRequest
	var err error
	if r.TaskID, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	if r.SessionID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	return r, done(b)
}

// --- DownloadResponse ---

// BinaryID implements wire.BinaryMessage.
func (DownloadResponse) BinaryID() byte { return binIDDownloadResponse }

// AppendBinary implements wire.BinaryMessage: the model vector ships as
// one bulk little-endian copy instead of gob's per-element walk — the
// download half of the serving hot path.
func (r DownloadResponse) AppendBinary(dst []byte) []byte {
	dst = wire.AppendFloat32s(dst, r.Params)
	return wire.AppendVarint(dst, int64(r.Version))
}

func decodeDownloadResponseBinary(b []byte) (any, error) {
	var r DownloadResponse
	var err error
	var v int64
	if r.Params, b, err = wire.ReadFloat32s(b, nil); err != nil {
		return nil, err
	}
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	r.Version = int(v)
	return r, done(b)
}

// ReleaseResponseBuffers implements wire.ResponseBufferLease: the
// aggregator serves Params from a pooled snapshot (see download), and the
// HTTP transport returns it here once the response frame is encoded.
func (r DownloadResponse) ReleaseResponseBuffers() { vecpool.PutFloats(r.Params) }

// SnapshotResponseBuffers implements wire.ResponseSnapshot: the in-memory
// fabric hands the caller this plain copy — matching what a networked
// caller gets from decoding the frame — and releases the pooled original.
func (r DownloadResponse) SnapshotResponseBuffers() any {
	out := r
	out.Params = make([]float32, len(r.Params))
	copy(out.Params, r.Params)
	return out
}

// --- ReportRequest ---

// BinaryID implements wire.BinaryMessage.
func (ReportRequest) BinaryID() byte { return binIDReportRequest }

// AppendBinary implements wire.BinaryMessage.
func (r ReportRequest) AppendBinary(dst []byte) []byte {
	dst = wire.AppendString(dst, r.TaskID)
	dst = wire.AppendUvarint(dst, r.SessionID)
	return wire.AppendStringSlice(dst, r.Compress)
}

func decodeReportRequestBinary(b []byte) (any, error) {
	var r ReportRequest
	var err error
	if r.TaskID, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	if r.SessionID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	if r.Compress, b, err = wire.ReadStringSlice(b); err != nil {
		return nil, err
	}
	return r, done(b)
}

// --- ReportResponse ---

// BinaryID implements wire.BinaryMessage.
func (ReportResponse) BinaryID() byte { return binIDReportResponse }

// AppendBinary implements wire.BinaryMessage. The simple upload
// configuration is hand-rolled; the SecAgg material (bundle + trust — deep
// crypto structures that change with the SecAgg protocol, not the wire) is
// carried as a nested gob blob, present exactly when SecAggEnabled is set.
func (r ReportResponse) AppendBinary(dst []byte) []byte {
	dst = wire.AppendBool(dst, r.OK)
	dst = wire.AppendString(dst, r.Reason)
	dst = wire.AppendVarint(dst, int64(r.ChunkSize))
	dst = wire.AppendVarint(dst, int64(r.CurrentVersion))
	dst = wire.AppendString(dst, r.Compress)
	dst = appendFloat64(dst, r.DPClip)
	dst = appendFloat64(dst, r.DPLocalNoise)
	dst = wire.AppendBool(dst, r.SecAggEnabled)
	if r.SecAggEnabled {
		blob, err := gobBlob(secAggReportBlob{Bundle: r.SecAggBundle, Trust: r.SecAggTrust})
		if err != nil {
			// SecAgg material that cannot gob-encode is a programming error
			// (the same material already crosses inside cold gob messages);
			// encode an empty blob so the decoder rejects the frame loudly.
			blob = nil
		}
		dst = wire.AppendBytes(dst, blob)
	}
	return dst
}

// secAggReportBlob is the gob-carried SecAgg half of a ReportResponse.
type secAggReportBlob struct {
	Bundle *secagg.InitialBundle
	Trust  secagg.ClientTrust
}

func decodeReportResponseBinary(b []byte) (any, error) {
	var r ReportResponse
	var err error
	var v int64
	if r.OK, b, err = wire.ReadBool(b); err != nil {
		return nil, err
	}
	if r.Reason, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	r.ChunkSize = int(v)
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	r.CurrentVersion = int(v)
	if r.Compress, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	if r.DPClip, b, err = readFloat64(b); err != nil {
		return nil, err
	}
	if r.DPLocalNoise, b, err = readFloat64(b); err != nil {
		return nil, err
	}
	if r.SecAggEnabled, b, err = wire.ReadBool(b); err != nil {
		return nil, err
	}
	if r.SecAggEnabled {
		var blob []byte
		if blob, b, err = wire.ReadBytes(b); err != nil {
			return nil, err
		}
		var sec secAggReportBlob
		if err := gobUnblob(blob, &sec); err != nil {
			return nil, fmt.Errorf("server: decoding SecAgg report material: %w", err)
		}
		r.SecAggBundle, r.SecAggTrust = sec.Bundle, sec.Trust
	}
	return r, done(b)
}

// --- UploadChunk ---

// Flag bits in an UploadChunk binary frame.
const (
	chunkFlagDone   = 1 << 0
	chunkFlagData   = 1 << 1
	chunkFlagMasked = 1 << 2
	chunkFlagPacked = 1 << 3
	chunkFlagSecAgg = 1 << 4
)

// BinaryID implements wire.BinaryMessage.
func (UploadChunk) BinaryID() byte { return binIDUploadChunk }

// AppendBinary implements wire.BinaryMessage: the hottest message on the
// serving path. Vector payloads (Data/Masked) are bulk little-endian
// copies; absent fields cost one flag bit. A chunk decoded for relay
// appends the body it arrived with.
func (c UploadChunk) AppendBinary(dst []byte) []byte {
	if c.relayed != nil {
		return append(dst, c.relayed...)
	}
	dst = wire.AppendString(dst, c.TaskID)
	dst = wire.AppendUvarint(dst, c.SessionID)
	dst = wire.AppendVarint(dst, int64(c.Offset))
	dst = wire.AppendVarint(dst, int64(c.NumExamples))
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
	dst = append(dst, flags)
	if flags&chunkFlagData != 0 {
		dst = wire.AppendFloat32s(dst, c.Data)
	}
	if flags&chunkFlagMasked != 0 {
		dst = wire.AppendUint32s(dst, c.Masked)
	}
	if flags&chunkFlagPacked != 0 {
		dst = wire.AppendBytes(dst, c.Packed)
	}
	if flags&chunkFlagSecAgg != 0 {
		dst = wire.AppendUvarint(dst, c.SecAggIndex)
		dst = wire.AppendBytes(dst, c.SecAggCompleting)
		dst = wire.AppendBytes(dst, c.SecAggEncSeed)
	}
	return dst
}

func decodeUploadChunkBinary(b []byte) (any, error) {
	c, err := decodeUploadChunk(b, true)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// decodeUploadChunk parses an UploadChunk body. With lease set the vectors
// are leased from vecpool (the aggregator's decode). Without, the vector
// and byte fields are validated and skipped, and the chunk keeps the body
// it came from: the selector's decode inside a route envelope, which reads
// the scalar fields and relays the rest as bytes.
func decodeUploadChunk(b []byte, lease bool) (UploadChunk, error) {
	var c UploadChunk
	var err error
	var v int64
	body := b
	if c.TaskID, b, err = wire.ReadString(b); err != nil {
		return c, err
	}
	if c.SessionID, b, err = wire.ReadUvarint(b); err != nil {
		return c, err
	}
	if v, b, err = wire.ReadVarint(b); err != nil {
		return c, err
	}
	c.Offset = int(v)
	if v, b, err = wire.ReadVarint(b); err != nil {
		return c, err
	}
	c.NumExamples = int(v)
	if len(b) < 1 {
		return c, errors.New("server: truncated upload-chunk flags")
	}
	flags := b[0]
	c.Done = flags&chunkFlagDone != 0
	if !lease {
		c.relayed = body
		return c, skipChunkFields(b[1:], flags)
	}
	return c, readChunkFields(&c, b[1:], flags)
}

// readChunkFields decodes the flagged fields after a chunk's flags byte,
// returning every leased vector if the frame turns out malformed.
func readChunkFields(c *UploadChunk, b []byte, flags byte) error {
	var err error
	if flags&chunkFlagData != 0 {
		// Lease the vector from the pool: the aggregator copies it into the
		// session's reassembly buffer and the transport releases it via
		// ReleaseBinaryBuffers once the handler returns.
		if c.Data, b, err = wire.ReadFloat32s(b, vecpool.GetFloats); err != nil {
			return err
		}
	}
	if flags&chunkFlagMasked != 0 {
		if c.Masked, b, err = wire.ReadUint32s(b, vecpool.GetUints); err != nil {
			releaseChunkVectors(c)
			return err
		}
	}
	if flags&chunkFlagPacked != 0 {
		if c.Packed, b, err = wire.ReadBytes(b); err != nil {
			releaseChunkVectors(c)
			return err
		}
	}
	if flags&chunkFlagSecAgg != 0 {
		if c.SecAggIndex, b, err = wire.ReadUvarint(b); err != nil {
			releaseChunkVectors(c)
			return err
		}
		if c.SecAggCompleting, b, err = wire.ReadBytes(b); err != nil {
			releaseChunkVectors(c)
			return err
		}
		if c.SecAggEncSeed, b, err = wire.ReadBytes(b); err != nil {
			releaseChunkVectors(c)
			return err
		}
	}
	if err := done(b); err != nil {
		releaseChunkVectors(c)
		return err
	}
	return nil
}

// skipChunkFields validates the flagged fields after a chunk's flags byte
// under the same bounds readChunkFields applies, copying nothing.
func skipChunkFields(b []byte, flags byte) error {
	var err error
	if flags&chunkFlagData != 0 {
		if b, err = wire.Skip(b, 4); err != nil {
			return err
		}
	}
	if flags&chunkFlagMasked != 0 {
		if b, err = wire.Skip(b, 4); err != nil {
			return err
		}
	}
	if flags&chunkFlagPacked != 0 {
		if b, err = wire.Skip(b, 1); err != nil {
			return err
		}
	}
	if flags&chunkFlagSecAgg != 0 {
		if _, b, err = wire.ReadUvarint(b); err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			if b, err = wire.Skip(b, 1); err != nil {
				return err
			}
		}
	}
	return done(b)
}

func releaseChunkVectors(c *UploadChunk) {
	vecpool.PutFloats(c.Data)
	vecpool.PutUints(c.Masked)
	c.Data, c.Masked = nil, nil
}

// ReleaseBinaryBuffers implements wire.BufferLease: returns the leased
// Data/Masked vectors after the aggregator has copied them into the
// session's reassembly buffer. Safe on any decode origin — slices that did
// not come from the pool (gob decodes, in-memory payloads never pass here)
// are discarded by the pool's capacity check.
func (c UploadChunk) ReleaseBinaryBuffers() { releaseChunkVectors(&c) }

// --- UploadResponse ---

// BinaryID implements wire.BinaryMessage.
func (UploadResponse) BinaryID() byte { return binIDUploadResponse }

// AppendBinary implements wire.BinaryMessage.
func (r UploadResponse) AppendBinary(dst []byte) []byte {
	dst = wire.AppendBool(dst, r.OK)
	return wire.AppendString(dst, r.Reason)
}

func decodeUploadResponseBinary(b []byte) (any, error) {
	var r UploadResponse
	var err error
	if r.OK, b, err = wire.ReadBool(b); err != nil {
		return nil, err
	}
	if r.Reason, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	return r, done(b)
}

// --- FailRequest ---

// BinaryID implements wire.BinaryMessage.
func (FailRequest) BinaryID() byte { return binIDFailRequest }

// AppendBinary implements wire.BinaryMessage.
func (r FailRequest) AppendBinary(dst []byte) []byte {
	dst = wire.AppendString(dst, r.TaskID)
	return wire.AppendUvarint(dst, r.SessionID)
}

func decodeFailRequestBinary(b []byte) (any, error) {
	var r FailRequest
	var err error
	if r.TaskID, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	if r.SessionID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	return r, done(b)
}

// --- RouteRequest ---

// BinaryID implements wire.BinaryMessage.
func (RouteRequest) BinaryID() byte { return binIDRouteRequest }

// AppendBinary implements wire.BinaryMessage: the forwarded payload is
// encoded recursively with the same tag scheme as a top-level payload, so
// a routed UploadChunk stays on the zero-reflection path end to end.
func (r RouteRequest) AppendBinary(dst []byte) []byte {
	dst = wire.AppendString(dst, r.TaskID)
	dst = wire.AppendString(dst, r.Method)
	// TraceID rides before the nested payload: the payload decode
	// consumes the remainder of the frame, so trailing fields cannot be
	// appended after it.
	dst = wire.AppendUvarint(dst, r.TraceID)
	out, err := wire.AppendPayloadBinary(dst, r.Payload)
	if err != nil {
		// An unregistered nested payload cannot encode; emit a frame the
		// decoder rejects (nested decode fails on the empty payload) rather
		// than panicking mid-encode. Reaching this is a registry bug that
		// the wire round-trip tests catch.
		return append(dst, 255)
	}
	return out
}

func decodeRouteRequestBinary(b []byte) (any, error) {
	var r RouteRequest
	var err error
	if r.TaskID, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	if r.Method, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	if r.TraceID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	// Only a selector decodes a route envelope, and it relays the nested
	// call: a chunk's scalar fields are read for routing and tracing, its
	// vectors stay the bytes they arrived as.
	if len(b) > 0 && b[0] == binIDUploadChunk {
		if r.Payload, err = decodeUploadChunk(b[1:], false); err != nil {
			return nil, err
		}
		return r, nil
	}
	if r.Payload, err = wire.DecodePayloadBinary(b); err != nil {
		return nil, err
	}
	return r, nil
}

// ReleaseBinaryBuffers implements wire.BufferLease by delegating to the
// forwarded payload (a routed UploadChunk's vectors are leased like a
// direct one's).
func (r RouteRequest) ReleaseBinaryBuffers() {
	if lease, ok := r.Payload.(wire.BufferLease); ok {
		lease.ReleaseBinaryBuffers()
	}
}

// --- TaskInfo ---

// BinaryID implements wire.BinaryMessage.
func (TaskInfo) BinaryID() byte { return binIDTaskInfo }

// AppendBinary implements wire.BinaryMessage.
func (r TaskInfo) AppendBinary(dst []byte) []byte {
	dst = wire.AppendVarint(dst, int64(r.Version))
	dst = wire.AppendVarint(dst, r.Updates)
	dst = wire.AppendVarint(dst, int64(r.Active))
	dst = wire.AppendFloat32s(dst, r.Params)
	dst = wire.AppendString(dst, string(r.Mode))
	dst = wire.AppendBool(dst, r.DPEnabled)
	dst = appendFloat64(dst, r.DPEpsilon)
	dst = appendFloat64(dst, r.DPDelta)
	dst = wire.AppendVarint(dst, int64(r.DPReleases))
	dst = appendFloat64(dst, r.DPBudget)
	return wire.AppendBool(dst, r.DPExhausted)
}

func decodeTaskInfoBinary(b []byte) (any, error) {
	var r TaskInfo
	var err error
	var v int64
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	r.Version = int(v)
	if r.Updates, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	r.Active = int(v)
	if r.Params, b, err = wire.ReadFloat32s(b, nil); err != nil {
		return nil, err
	}
	var mode string
	if mode, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	r.Mode = core.Algorithm(mode)
	if r.DPEnabled, b, err = wire.ReadBool(b); err != nil {
		return nil, err
	}
	if r.DPEpsilon, b, err = readFloat64(b); err != nil {
		return nil, err
	}
	if r.DPDelta, b, err = readFloat64(b); err != nil {
		return nil, err
	}
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	r.DPReleases = int(v)
	if r.DPBudget, b, err = readFloat64(b); err != nil {
		return nil, err
	}
	if r.DPExhausted, b, err = wire.ReadBool(b); err != nil {
		return nil, err
	}
	return r, done(b)
}

// ReleaseResponseBuffers implements wire.ResponseBufferLease; Params is
// served from a pooled snapshot like DownloadResponse's.
func (r TaskInfo) ReleaseResponseBuffers() { vecpool.PutFloats(r.Params) }

// SnapshotResponseBuffers implements wire.ResponseSnapshot; see
// DownloadResponse.SnapshotResponseBuffers.
func (r TaskInfo) SnapshotResponseBuffers() any {
	out := r
	out.Params = make([]float32, len(r.Params))
	copy(out.Params, r.Params)
	return out
}
