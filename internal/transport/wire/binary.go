// The one frame format. Profiling the loopback loadtest showed the serving
// path CPU-bound inside encoding/gob: every hot RPC (check-in, report, chunk
// upload, download) paid reflection over interface-typed payloads, and
// model-sized []float32 fields were walked element by element. Binary
// replaces that with a hand-rolled little-endian wire form for the hot
// messages — fixed headers, length-prefixed fields, bulk vector copies, zero
// reflection — and keeps a gob envelope as the in-frame fallback for cold
// messages (task specs, heartbeat reports), so every registered message
// still crosses.
//
// Hot messages register a hand-rolled encoder/decoder pair here via
// BinaryMessage + RegisterBinary (internal/server owns the message types,
// so it owns their binary form too — see internal/server/binwire.go).
// Decoders lease vector buffers from internal/vecpool; the transport
// returns them once the handler is done (see BufferLease).

package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// BinaryMessage is implemented by messages that have a hand-rolled binary
// wire form. AppendBinary must be the exact inverse of the decoder
// registered for BinaryID, and must not fail: binary messages are built
// from plain data fields only.
type BinaryMessage interface {
	// BinaryID is the message's one-byte identifier in binary payloads
	// (>= BinaryIDMin; smaller values are wire-internal tags).
	BinaryID() byte
	// AppendBinary appends the message's binary encoding to dst.
	AppendBinary(dst []byte) []byte
}

// BufferLease is implemented by request messages whose binary decoder
// leases buffers from internal/vecpool (UploadChunk's vectors). The
// transport calls ReleaseBinaryBuffers after the handler (and the response
// encode) are done, so a handler must copy any vector it keeps — the same
// contract handlers already honor, since in-memory payloads share memory
// with the caller.
type BufferLease interface {
	// ReleaseBinaryBuffers returns leased vectors to their pools.
	ReleaseBinaryBuffers()
}

// ResponseBufferLease is the response-side counterpart of BufferLease:
// implemented by response messages whose vectors the handler leased from a
// pool (a download's model snapshot). The transport releases them once
// the response frame is encoded. It is a distinct interface from
// BufferLease so a handler echoing its request payload back cannot cause a
// double release.
type ResponseBufferLease interface {
	// ReleaseResponseBuffers returns leased vectors to their pools.
	ReleaseResponseBuffers()
}

// ResponseSnapshot is the in-process counterpart of ResponseBufferLease.
// Networked fabrics release a response's pooled buffers after encoding its
// frame — the remote caller decodes an independent copy, so the lease and
// the caller's lifetime never overlap. The in-memory fabric has no encode
// step: without intervention the caller would keep the handler's pooled
// vectors forever, draining the pool and skewing the outstanding-lease
// counters. A response implementing this interface lets the in-memory
// fabric reproduce the networked lifecycle: it hands the caller
// SnapshotResponseBuffers' plain copy (the moral equivalent of the remote
// decode) and releases the original via ReleaseResponseBuffers.
type ResponseSnapshot interface {
	ResponseBufferLease
	// SnapshotResponseBuffers returns a copy of the response whose pooled
	// vectors are replaced by plain caller-owned allocations. The copy must
	// not alias any buffer ReleaseResponseBuffers returns to a pool.
	SnapshotResponseBuffers() any
}

// BinaryIDMin is the first message ID available to RegisterBinary; smaller
// values are payload tags owned by this package.
const BinaryIDMin = 16

// Payload tags below BinaryIDMin.
const (
	binTagNil  = 0 // nil payload (map-request style calls)
	binTagGob  = 1 // gob-envelope fallback for messages without a binary form
	binTagStr  = 2 // bare string payload (register-aggregator, task-info)
	binTagBool = 3 // bare bool payload (acks)
)

// Frame kinds (byte 3 of the header).
const (
	binFrameRequest  = 1
	binFrameResponse = 2
)

// maxBinaryElems bounds the element count a binary vector field may
// declare, mirroring the compression-frame bound: a hostile header must
// not buy a huge allocation before length validation.
const maxBinaryElems = 1 << 27

// --- binary message registry ---

var (
	binMu       sync.RWMutex
	binDecoders [256]func([]byte) (any, error)
)

// RegisterBinary records the decode half of a hand-rolled binary message
// under its one-byte ID. The encode half is the message's own AppendBinary.
// Re-registering an ID panics — a wire-format bug, caught at init time.
func RegisterBinary(id byte, dec func(body []byte) (any, error)) {
	if id < BinaryIDMin {
		panic(fmt.Sprintf("wire: binary ID %d is reserved (min %d)", id, BinaryIDMin))
	}
	if dec == nil {
		panic("wire: nil binary decoder")
	}
	binMu.Lock()
	defer binMu.Unlock()
	if binDecoders[id] != nil {
		panic(fmt.Sprintf("wire: binary ID %d already registered", id))
	}
	binDecoders[id] = dec
}

func binaryDecoder(id byte) func([]byte) (any, error) {
	binMu.RLock()
	defer binMu.RUnlock()
	return binDecoders[id]
}

// --- the codec ---

// Binary is the frame format every networked fabric speaks: "PB" magic,
// envelope version and frame kind, then length-prefixed fields — bulk
// []float32/[]uint32 copies for the hot control-plane messages, gob inside
// the frame for everything else. The Append methods encode into a
// caller-provided buffer so the transport recycles frame buffers.
type Binary struct{}

// AppendRequest appends an encoded request frame to dst.
func (Binary) AppendRequest(dst []byte, r *Request) ([]byte, error) {
	dst = append(dst, 'P', 'B', Version, binFrameRequest)
	dst = AppendString(dst, r.From)
	dst = AppendString(dst, r.Method)
	return AppendPayloadBinary(dst, r.Payload)
}

// AppendResponse appends an encoded response frame to dst.
func (Binary) AppendResponse(dst []byte, r *Response) ([]byte, error) {
	dst = append(dst, 'P', 'B', Version, binFrameResponse)
	dst = AppendString(dst, r.Err)
	dst = AppendString(dst, r.Kind)
	return AppendPayloadBinary(dst, r.Payload)
}

func checkBinaryHeader(b []byte, kind byte) ([]byte, error) {
	if len(b) < 4 || b[0] != 'P' || b[1] != 'B' {
		return nil, errors.New("wire: not a papaya binary frame")
	}
	if b[2] != Version {
		return nil, fmt.Errorf("wire: envelope version %d, this build speaks %d", b[2], Version)
	}
	if b[3] != kind {
		return nil, fmt.Errorf("wire: binary frame kind %d, want %d", b[3], kind)
	}
	return b[4:], nil
}

// DecodeRequest parses a request frame, rejecting an unknown magic,
// envelope version or frame kind (versioning rule 1).
func (Binary) DecodeRequest(b []byte) (*Request, error) {
	body, err := checkBinaryHeader(b, binFrameRequest)
	if err != nil {
		return nil, err
	}
	from, body, err := ReadString(body)
	if err != nil {
		return nil, err
	}
	method, body, err := ReadString(body)
	if err != nil {
		return nil, err
	}
	payload, err := DecodePayloadBinary(body)
	if err != nil {
		return nil, err
	}
	return &Request{From: from, Method: method, Payload: payload}, nil
}

// DecodeResponse parses a response frame under the same checks as
// DecodeRequest.
func (Binary) DecodeResponse(b []byte) (*Response, error) {
	body, err := checkBinaryHeader(b, binFrameResponse)
	if err != nil {
		return nil, err
	}
	errStr, body, err := ReadString(body)
	if err != nil {
		return nil, err
	}
	kind, body, err := ReadString(body)
	if err != nil {
		return nil, err
	}
	payload, err := DecodePayloadBinary(body)
	if err != nil {
		return nil, err
	}
	return &Response{Payload: payload, Err: errStr, Kind: kind}, nil
}

// ResponseHeadLen is the length of a successful response frame's head: the
// magic, version and kind bytes plus the two empty strings. ResponseStatus
// needs no more than this to report success.
const ResponseHeadLen = 6

// ResponseStatus reads only the Err and Kind fields at the head of a
// response frame, leaving the payload undecoded: how a relay tells a
// failed answer from a good one without materialising what it forwards.
func (Binary) ResponseStatus(b []byte) (errStr, kind string, err error) {
	body, err := checkBinaryHeader(b, binFrameResponse)
	if err != nil {
		return "", "", err
	}
	if errStr, body, err = ReadString(body); err != nil {
		return "", "", err
	}
	kind, _, err = ReadString(body)
	return errStr, kind, err
}

// --- payload encoding ---

// binGobPayload wraps the gob-fallback payload so interface-typed values
// encode with their registered concrete type (wire.Register already
// gob-registers every message).
type binGobPayload struct{ V any }

var gobBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// AppendPayloadBinary appends the binary payload encoding of v: a one-byte
// tag followed by the message body, which extends to the end of the
// buffer. Hot messages (BinaryMessage implementers) get their hand-rolled
// form; strings, bools, and nil have wire-native tags; everything else
// rides a gob envelope inside the frame. Exported so nested-payload
// messages (server.RouteRequest) can reuse it.
func AppendPayloadBinary(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, binTagNil), nil
	case string:
		return AppendString(append(dst, binTagStr), x), nil
	case bool:
		return AppendBool(append(dst, binTagBool), x), nil
	}
	if bm, ok := v.(BinaryMessage); ok {
		id := bm.BinaryID()
		if id < BinaryIDMin {
			return nil, fmt.Errorf("wire: %T declares reserved binary ID %d", v, id)
		}
		if binaryDecoder(id) == nil {
			return nil, fmt.Errorf("wire: %T encodes binary ID %d but no decoder is registered", v, id)
		}
		return bm.AppendBinary(append(dst, id)), nil
	}
	// Cold path: gob envelope. The message must still be registered —
	// only the explicit registry may cross the network.
	if _, err := lookupName(v); err != nil {
		return nil, err
	}
	buf := gobBufPool.Get().(*bytes.Buffer)
	defer gobBufPool.Put(buf)
	buf.Reset()
	if err := gob.NewEncoder(buf).Encode(&binGobPayload{V: v}); err != nil {
		return nil, err
	}
	return append(append(dst, binTagGob), buf.Bytes()...), nil
}

// DecodePayloadBinary reverses AppendPayloadBinary, consuming the whole
// buffer. Trailing bytes after a complete message are an error: a frame
// either parses exactly or is rejected.
func DecodePayloadBinary(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, errors.New("wire: truncated binary payload")
	}
	tag, body := b[0], b[1:]
	switch tag {
	case binTagNil:
		if len(body) != 0 {
			return nil, errors.New("wire: trailing bytes after nil payload")
		}
		return nil, nil
	case binTagStr:
		s, rest, err := ReadString(body)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, errors.New("wire: trailing bytes after string payload")
		}
		return s, nil
	case binTagBool:
		v, rest, err := ReadBool(body)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, errors.New("wire: trailing bytes after bool payload")
		}
		return v, nil
	case binTagGob:
		var w binGobPayload
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&w); err != nil {
			return nil, fmt.Errorf("wire: decoding gob-fallback payload: %w", err)
		}
		return w.V, nil
	}
	dec := binaryDecoder(tag)
	if dec == nil {
		return nil, fmt.Errorf("wire: unregistered binary message ID %d", tag)
	}
	return dec(body)
}

// --- field helpers (shared with the message owners) ---

// String interning for the short identifiers that repeat on every RPC
// (task IDs, method names, node names, abort reasons): decoding them must
// not allocate per frame. The table is capped so hostile unique strings
// cannot grow it without bound — over the cap, decode falls back to a
// plain copy.
const (
	internMaxLen     = 64
	internMaxEntries = 4096
)

var (
	internMu  sync.RWMutex
	internTab = make(map[string]string)
)

func intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > internMaxLen {
		return string(b)
	}
	internMu.RLock()
	s, ok := internTab[string(b)] // no-alloc map lookup
	internMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	internMu.Lock()
	if len(internTab) < internMaxEntries {
		internTab[s] = s
	}
	internMu.Unlock()
	return s
}

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// ReadUvarint reads an unsigned varint, returning the remaining bytes.
func ReadUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errors.New("wire: truncated varint")
	}
	return v, b[n:], nil
}

// AppendVarint appends v as a zigzag-encoded signed varint.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// ReadVarint reads a zigzag-encoded signed varint.
func ReadVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, errors.New("wire: truncated varint")
	}
	return v, b[n:], nil
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ReadString reads a length-prefixed string. Short strings are interned,
// so repeated identifiers (task IDs, methods) decode without allocating.
func ReadString(b []byte) (string, []byte, error) {
	n, rest, err := ReadUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(rest)) {
		return "", nil, errors.New("wire: string length exceeds frame")
	}
	return intern(rest[:n]), rest[n:], nil
}

// AppendBool appends a bool as one byte.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// ReadBool reads a one-byte bool, rejecting values other than 0 and 1 so
// flags stay canonical.
func ReadBool(b []byte) (bool, []byte, error) {
	if len(b) < 1 {
		return false, nil, errors.New("wire: truncated bool")
	}
	if b[0] > 1 {
		return false, nil, fmt.Errorf("wire: bool byte %d", b[0])
	}
	return b[0] == 1, b[1:], nil
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(dst []byte, src []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	return append(dst, src...)
}

// ReadBytes reads a length-prefixed byte slice, copying out of the frame
// (frame buffers are pooled and recycled; decoded messages must not alias
// them). Empty decodes as nil, per versioning rule 3.
func ReadBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := ReadUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, errors.New("wire: byte-field length exceeds frame")
	}
	if n == 0 {
		return nil, rest, nil
	}
	out := make([]byte, n)
	copy(out, rest[:n])
	return out, rest[n:], nil
}

// Skip steps over one length-prefixed field of elemSize-byte elements (1 for
// AppendBytes, 4 for the vector fields) under the same bounds as reading
// it, without copying: a relay validates what it forwards as bytes.
func Skip(b []byte, elemSize int) ([]byte, error) {
	n, rest, err := ReadUvarint(b)
	if err != nil {
		return nil, err
	}
	if n > maxBinaryElems || n*uint64(elemSize) > uint64(len(rest)) {
		return nil, errors.New("wire: field length exceeds frame")
	}
	return rest[n*uint64(elemSize):], nil
}

// AppendStringSlice appends a length-prefixed slice of strings.
func AppendStringSlice(dst []byte, src []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	for _, s := range src {
		dst = AppendString(dst, s)
	}
	return dst
}

// ReadStringSlice reads a length-prefixed slice of strings. Empty decodes
// as nil.
func ReadStringSlice(b []byte) ([]string, []byte, error) {
	n, rest, err := ReadUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	// Each element costs at least its 1-byte length prefix, so a tiny
	// hostile frame cannot declare a huge slice.
	if n > uint64(len(rest)) {
		return nil, nil, errors.New("wire: string-slice length exceeds frame")
	}
	if n == 0 {
		return nil, rest, nil
	}
	out := make([]string, n)
	for i := range out {
		out[i], rest, err = ReadString(rest)
		if err != nil {
			return nil, nil, err
		}
	}
	return out, rest, nil
}

// hostLittleEndian is decided once per process: on a little-endian host a
// vector's memory already is its wire form, so the vector fields below
// encode and decode with one copy through a byte view of the vector; a
// big-endian host swaps element by element.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// vectorBytes is the byte view of a 4-byte-element vector's memory.
func vectorBytes[T float32 | uint32](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

// AppendFloat32s appends a length-prefixed []float32 as packed
// little-endian IEEE 754 bits — the bulk copy that replaces gob's
// per-element reflection on model-sized vectors.
func AppendFloat32s(dst []byte, src []float32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	if hostLittleEndian {
		return append(dst, vectorBytes(src)...)
	}
	off := len(dst)
	dst = append(dst, make([]byte, 4*len(src))...)
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[off+4*i:], math.Float32bits(v))
	}
	return dst
}

// ReadFloat32s reads a length-prefixed packed []float32. alloc supplies
// the destination slice for a given element count (pass vecpool.GetFloats
// to lease from the pool, or nil for a plain allocation); the declared
// count is validated against the remaining frame bytes before alloc runs.
// Empty decodes as nil.
func ReadFloat32s(b []byte, alloc func(int) []float32) ([]float32, []byte, error) {
	n64, rest, err := ReadUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n64 > maxBinaryElems || 4*n64 > uint64(len(rest)) {
		return nil, nil, errors.New("wire: float vector exceeds frame")
	}
	n := int(n64)
	if n == 0 {
		return nil, rest, nil
	}
	var out []float32
	if alloc != nil {
		out = alloc(n)
	} else {
		out = make([]float32, n)
	}
	if hostLittleEndian {
		copy(vectorBytes(out), rest[:4*n])
		return out, rest[4*n:], nil
	}
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(rest[4*i:]))
	}
	return out, rest[4*n:], nil
}

// AppendUint32s appends a length-prefixed []uint32 as packed little-endian
// words (SecAgg masked vectors).
func AppendUint32s(dst []byte, src []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	if hostLittleEndian {
		return append(dst, vectorBytes(src)...)
	}
	off := len(dst)
	dst = append(dst, make([]byte, 4*len(src))...)
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[off+4*i:], v)
	}
	return dst
}

// ReadUint32s reads a length-prefixed packed []uint32; see ReadFloat32s
// for the alloc contract (pass vecpool.GetUints to lease from the pool).
func ReadUint32s(b []byte, alloc func(int) []uint32) ([]uint32, []byte, error) {
	n64, rest, err := ReadUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n64 > maxBinaryElems || 4*n64 > uint64(len(rest)) {
		return nil, nil, errors.New("wire: uint vector exceeds frame")
	}
	n := int(n64)
	if n == 0 {
		return nil, rest, nil
	}
	var out []uint32
	if alloc != nil {
		out = alloc(n)
	} else {
		out = make([]uint32, n)
	}
	if hostLittleEndian {
		copy(vectorBytes(out), rest[:4*n])
		return out, rest[4*n:], nil
	}
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(rest[4*i:])
	}
	return out, rest[4*n:], nil
}
