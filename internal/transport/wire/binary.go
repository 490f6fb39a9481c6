// The one frame format. Profiling the loopback loadtest showed the serving
// path CPU-bound inside encoding/gob: every RPC paid reflection over
// interface-typed payloads, and model-sized []float32 fields were walked
// element by element. Binary replaces that with one little-endian wire form
// for every message — fixed headers, varint scalars, length-prefixed
// fields, bulk vector copies, zero reflection.
//
// Each message states its layout once, as a field walk over a Fields
// cursor (internal/server owns the message types, so it owns their walks
// too — see internal/server/binwire.go). The same walk appends the message,
// decodes it, and validates-and-skips it for a relay. Only a decoder given
// a lease allocator leases vectors from internal/vecpool; the transport
// returns them once the handler is done (see BufferLease). Responses lease
// nothing: the one model-sized answer, a download, arrives already encoded
// (see EncodedResponse).

package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// BinaryMessage is implemented by every registered message type.
// AppendBinary appends the message's ID byte and its fields (through
// AppendFields and the message's walk) and must not fail: the registered
// decoder for that ID reverses it.
type BinaryMessage interface {
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

// EncodedResponse is implemented by a response payload that arrives
// already encoded: a model version's download, encoded once when the
// version is published and shared by every caller it answers. A serving
// loop writes ResponseFrame as the response's frame, behind a stream
// header, without encoding anything; the in-memory fabric hands the caller
// the frame's decode, which is what a networked caller gets.
type EncodedResponse interface {
	// ResponseFrame returns a complete Binary response frame reporting
	// success (AppendResponse's output). It is shared: nobody may modify it.
	ResponseFrame() []byte
}

// BinaryIDMin is the first message ID available to Register; smaller
// values are payload tags owned by this package.
const BinaryIDMin = 16

// Payload tags below BinaryIDMin. Tag 1 (the retired gob envelope) is
// unassigned.
const (
	tagNil  = 0 // nil payload (map-request style calls)
	tagStr  = 2 // bare string payload (register-aggregator, task-info)
	tagBool = 3 // bare bool payload (acks)
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

// --- the codec ---

// Binary is the frame format every networked fabric speaks: "PB" magic,
// envelope version and frame kind, then the envelope's strings and the
// payload's field walk. The Append methods encode into a caller-provided
// buffer so the transport recycles frame buffers.
type Binary struct{}

// AppendRequest appends an encoded request frame to dst.
func (Binary) AppendRequest(dst []byte, r *Request) ([]byte, error) {
	f := Fields{buf: append(dst, 'P', 'B', Version, binFrameRequest)}
	f.String(&r.From)
	f.String(&r.Method)
	return AppendPayloadBinary(f.buf, r.Payload)
}

// AppendResponse appends an encoded response frame to dst.
func (Binary) AppendResponse(dst []byte, r *Response) ([]byte, error) {
	f := Fields{buf: append(dst, 'P', 'B', Version, binFrameResponse)}
	f.String(&r.Err)
	f.String(&r.Kind)
	return AppendPayloadBinary(f.buf, r.Payload)
}

// readHeader checks a frame's magic, version and kind and reads the two
// envelope strings that follow, returning the payload bytes.
func readHeader(b []byte, kind byte, s1, s2 *string) ([]byte, error) {
	if len(b) < 4 || b[0] != 'P' || b[1] != 'B' {
		return nil, errors.New("wire: not a papaya binary frame")
	}
	if b[2] != Version {
		return nil, fmt.Errorf("wire: envelope version %d, this build speaks %d", b[2], Version)
	}
	if b[3] != kind {
		return nil, fmt.Errorf("wire: binary frame kind %d, want %d", b[3], kind)
	}
	f := DecodeFields(b[4:])
	f.String(s1)
	f.String(s2)
	return f.buf, f.err
}

// DecodeRequest parses a request frame, rejecting an unknown magic,
// envelope version or frame kind (versioning rule 1).
func (Binary) DecodeRequest(b []byte) (*Request, error) {
	r := new(Request)
	body, err := readHeader(b, binFrameRequest, &r.From, &r.Method)
	if err != nil {
		return nil, err
	}
	if r.Payload, err = DecodePayloadBinary(body); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeResponse parses a response frame under the same checks as
// DecodeRequest.
func (Binary) DecodeResponse(b []byte) (*Response, error) {
	r := new(Response)
	body, err := readHeader(b, binFrameResponse, &r.Err, &r.Kind)
	if err != nil {
		return nil, err
	}
	if r.Payload, err = DecodePayloadBinary(body); err != nil {
		return nil, err
	}
	return r, nil
}

// ResponseStatus reads only the Err and Kind fields at the head of a
// response frame, leaving the payload undecoded: how a relay tells a
// failed answer from a good one without materialising what it forwards.
func (Binary) ResponseStatus(b []byte) (errStr, kind string, err error) {
	_, err = readHeader(b, binFrameResponse, &errStr, &kind)
	return errStr, kind, err
}

// --- payload encoding ---

// AppendPayloadBinary appends the binary payload encoding of v: a one-byte
// tag followed by the message body, which extends to the end of the
// buffer. Strings, bools and nil have wire-native tags; every other
// payload must be a registered BinaryMessage. Exported so nested-payload
// messages (server.RouteRequest) can reuse it.
func AppendPayloadBinary(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil), nil
	case string:
		f := AppendFields(dst, tagStr)
		f.String(&x)
		return f.buf, nil
	case bool:
		f := AppendFields(dst, tagBool)
		f.Bool(&x)
		return f.buf, nil
	case BinaryMessage:
		start := len(dst)
		dst = x.AppendBinary(dst)
		if len(dst) == start || dst[start] < BinaryIDMin || registry[dst[start]].dec == nil {
			return nil, fmt.Errorf("wire: %T encodes no registered message ID", v)
		}
		return dst, nil
	}
	return nil, fmt.Errorf("wire: message type %T is not registered", v)
}

// DecodePayloadBinary reverses AppendPayloadBinary, consuming the whole
// buffer. Trailing bytes after a complete message are an error: a frame
// either parses exactly or is rejected.
func DecodePayloadBinary(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, errors.New("wire: truncated binary payload")
	}
	if b[0] == tagNil {
		if len(b) != 1 {
			return nil, errors.New("wire: trailing bytes after nil payload")
		}
		return nil, nil
	}
	dec := registry[b[0]].dec
	if dec == nil {
		return nil, fmt.Errorf("wire: unregistered binary message ID %d", b[0])
	}
	return dec(b[1:])
}

func decodeString(b []byte) (any, error) {
	var s string
	f := DecodeFields(b)
	f.String(&s)
	return s, f.Done()
}

func decodeBool(b []byte) (any, error) {
	var v bool
	f := DecodeFields(b)
	f.Bool(&v)
	return v, f.Done()
}

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

// --- the field cursor ---

// Fields is the cursor a message's field walk runs on. One walk serves
// three modes: append (AppendFields) writes each field; decode
// (DecodeFields) reads each field into the value; skip (SkipFields) reads
// the scalar and string fields but only validates and steps over byte and
// vector fields, copying nothing — how a relay reads what it forwards as
// bytes. Reading modes check every declared length against the rest of the
// frame before allocating, and the first error sticks: later fields read
// as zero and Done reports it. Appending never writes through the walk's
// pointers, so a walk may run over values other goroutines are reading.
type Fields struct {
	buf  []byte // append: the encoding so far; reading: the unread bytes
	mode uint8
	err  error

	floats func(int) []float32 // decode destinations, when leased
	uints  func(int) []uint32
}

const (
	modeAppend = iota
	modeDecode
	modeSkip
)

// AppendFields returns an append-mode cursor that has written the message
// ID id to dst.
func AppendFields(dst []byte, id byte) Fields { return Fields{buf: append(dst, id)} }

// DecodeFields returns a decode-mode cursor over a message body.
func DecodeFields(body []byte) Fields { return Fields{buf: body, mode: modeDecode} }

// SkipFields returns a skip-mode cursor over a message body.
func SkipFields(body []byte) Fields { return Fields{buf: body, mode: modeSkip} }

// Lease makes a decode-mode cursor take vector fields' memory from floats
// and uints (vecpool.GetFloats and GetUints) instead of plain allocations;
// the decoded message must then implement BufferLease.
func (f *Fields) Lease(floats func(int) []float32, uints func(int) []uint32) {
	f.floats, f.uints = floats, uints
}

// Appended returns an append-mode cursor's encoding.
func (f *Fields) Appended() []byte { return f.buf }

// Decoding reports whether the cursor reads a frame (decode or skip mode).
func (f *Fields) Decoding() bool { return f.mode != modeAppend }

// Done ends a read: the first error the walk hit, or an error if bytes are
// left over after a complete message.
func (f *Fields) Done() error {
	if f.err == nil && len(f.buf) != 0 {
		f.err = errors.New("wire: trailing bytes after binary message")
	}
	return f.err
}

// Rest ends a read whose message is followed by a nested payload: the
// first error the walk hit, or the unread bytes.
func (f *Fields) Rest() ([]byte, error) { return f.buf, f.err }

func (f *Fields) fail(msg string) {
	if f.err == nil {
		f.err = errors.New("wire: " + msg)
	}
}

// uvarint reads one unsigned varint in a reading mode.
func (f *Fields) uvarint() uint64 {
	if f.err != nil {
		return 0
	}
	v, n := binary.Uvarint(f.buf)
	if n <= 0 {
		f.fail("truncated varint")
		return 0
	}
	f.buf = f.buf[n:]
	return v
}

// count reads a length prefix in a reading mode and checks that n elements
// of size bytes each fit in the rest of the frame; 0 on error.
func (f *Fields) count(size int) int {
	n := f.uvarint()
	if n > maxBinaryElems || n*uint64(size) > uint64(len(f.buf)) {
		f.fail("field length exceeds frame")
		return 0
	}
	return int(n)
}

// take consumes n bytes the caller has already bounds-checked.
func (f *Fields) take(n int) []byte {
	b := f.buf[:n]
	f.buf = f.buf[n:]
	return b
}

// fixed consumes an n-byte field in a reading mode: nil once the walk has
// failed or if the frame is shorter.
func (f *Fields) fixed(n int) []byte {
	if f.err == nil && len(f.buf) < n {
		f.fail("truncated fixed-size field")
	}
	if f.err != nil {
		return nil
	}
	return f.take(n)
}

// Uvarint walks an unsigned varint.
func (f *Fields) Uvarint(v *uint64) {
	if f.mode == modeAppend {
		f.buf = binary.AppendUvarint(f.buf, *v)
		return
	}
	*v = f.uvarint()
}

// Varint walks a zigzag-encoded signed varint.
func (f *Fields) Varint(v *int64) {
	if f.mode == modeAppend {
		f.buf = binary.AppendVarint(f.buf, *v)
		return
	}
	u := f.uvarint()
	*v = int64(u>>1) ^ -int64(u&1)
}

// Int walks an int as a signed varint.
func (f *Fields) Int(v *int) {
	x := int64(*v)
	if f.Varint(&x); f.mode != modeAppend {
		*v = int(x)
	}
}

// Byte walks one raw byte.
func (f *Fields) Byte(v *byte) {
	if f.mode == modeAppend {
		f.buf = append(f.buf, *v)
		return
	}
	*v = 0
	if b := f.fixed(1); b != nil {
		*v = b[0]
	}
}

// Bool walks a bool as one byte, rejecting values other than 0 and 1 so
// flags and presence bytes stay canonical.
func (f *Fields) Bool(v *bool) {
	b := byte(0)
	if *v {
		b = 1
	}
	if f.Byte(&b); f.mode == modeAppend {
		return
	}
	if b > 1 {
		f.fail(fmt.Sprintf("bool byte %d", b))
	}
	*v = b == 1
}

// Float64 walks a float64 as its IEEE-754 bit pattern in an unsigned
// varint.
func (f *Fields) Float64(v *float64) {
	bits := math.Float64bits(*v)
	if f.Uvarint(&bits); f.mode != modeAppend {
		*v = math.Float64frombits(bits)
	}
}

// String walks a length-prefixed string. Reading interns short strings,
// so repeated identifiers (task IDs, methods) decode without allocating.
func (f *Fields) String(v *string) {
	if f.mode == modeAppend {
		f.buf = append(binary.AppendUvarint(f.buf, uint64(len(*v))), *v...)
		return
	}
	*v = intern(f.take(f.count(1)))
}

// Strings walks a length-prefixed slice of strings. Empty reads as nil.
func (f *Fields) Strings(v *[]string) {
	n := f.Count(len(*v), 1)
	if f.mode != modeAppend {
		*v = nil
		if n > 0 {
			*v = make([]string, n)
		}
	}
	for i := 0; i < n; i++ {
		f.String(&(*v)[i])
	}
}

// Count walks a collection's element count: append writes n; reading
// returns the count read, once n elements of at least min bytes each are
// known to fit in the rest of the frame (0 on error). The walk then visits
// the elements itself.
func (f *Fields) Count(n, min int) int {
	if f.mode == modeAppend {
		f.buf = binary.AppendUvarint(f.buf, uint64(n))
		return n
	}
	return f.count(min)
}

// Bytes walks a length-prefixed byte slice. Decoding copies out of the
// frame (frame buffers are recycled; decoded messages must not alias
// them); skipping steps over it. Empty decodes as nil.
func (f *Fields) Bytes(v *[]byte) {
	if f.mode == modeAppend {
		f.buf = append(binary.AppendUvarint(f.buf, uint64(len(*v))), *v...)
		return
	}
	b := f.take(f.count(1))
	if f.mode == modeSkip || len(b) == 0 {
		*v = nil
		return
	}
	*v = append([]byte(nil), b...)
}

// Hash walks a fixed 32-byte field (a SHA-256 digest) with no prefix.
func (f *Fields) Hash(v *[32]byte) {
	if f.mode == modeAppend {
		f.buf = append(f.buf, v[:]...)
		return
	}
	*v = [32]byte{}
	copy(v[:], f.fixed(len(v)))
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

// Float32s walks a length-prefixed []float32 as packed little-endian IEEE
// 754 bits — one bulk copy on a little-endian host. Decoding leases the
// vector when the cursor has a lease allocator and allocates it otherwise;
// skipping steps over it. Empty decodes as nil.
func (f *Fields) Float32s(v *[]float32) {
	if f.mode == modeAppend {
		f.appendWords(vectorBytes(*v))
		return
	}
	n, raw := f.readWords()
	if *v = nil; raw == nil {
		return
	}
	if f.floats != nil {
		*v = f.floats(n)
	} else {
		*v = make([]float32, n)
	}
	copyWords(vectorBytes(*v), raw)
}

// Uint32s walks a length-prefixed []uint32 as packed little-endian words
// (SecAgg masked vectors), under Float32s' rules.
func (f *Fields) Uint32s(v *[]uint32) {
	if f.mode == modeAppend {
		f.appendWords(vectorBytes(*v))
		return
	}
	n, raw := f.readWords()
	if *v = nil; raw == nil {
		return
	}
	if f.uints != nil {
		*v = f.uints(n)
	} else {
		*v = make([]uint32, n)
	}
	copyWords(vectorBytes(*v), raw)
}

// appendWords appends a vector's memory, given as its byte view, as a
// count and little-endian 4-byte words.
func (f *Fields) appendWords(mem []byte) {
	f.buf = binary.AppendUvarint(f.buf, uint64(len(mem)/4))
	if hostLittleEndian {
		f.buf = append(f.buf, mem...)
		return
	}
	for i := 0; i < len(mem); i += 4 {
		f.buf = binary.LittleEndian.AppendUint32(f.buf, binary.NativeEndian.Uint32(mem[i:]))
	}
}

// readWords reads a vector's count and steps over its words, returning
// them only when decoding a non-empty vector.
func (f *Fields) readWords() (n int, raw []byte) {
	n = f.count(4)
	raw = f.take(4 * n)
	if f.mode == modeSkip || n == 0 {
		return 0, nil
	}
	return n, raw
}

// copyWords copies little-endian words into a vector's byte view.
func copyWords(mem, raw []byte) {
	if hostLittleEndian {
		copy(mem, raw)
		return
	}
	for i := 0; i < len(raw); i += 4 {
		binary.NativeEndian.PutUint32(mem[i:], binary.LittleEndian.Uint32(raw[i:]))
	}
}
