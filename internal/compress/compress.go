// Package compress is the upload compression stage: the communication
// lever PAPAYA's production fleet depends on (Section 7 discusses the cost
// of moving model updates from millions of devices;
// compression/quantization is the standard mitigation the paper's
// deployment applies before updates cross the WAN).
//
// It is the only compression in the system, and only the plaintext upload
// path calls it: model deltas are []float32 and quantize well. SecAgg
// uploads always travel raw, because masked values are uniform over
// Z_2^32 and no codec shrinks them.
//
// The package holds a fixed table of codecs behind the Codec interface,
// keyed by stable name and one-byte wire ID, and a self-describing frame
// format, so a receiver can decode any frame produced by any codec in the
// table without out-of-band configuration:
//
//	byte 0-1  magic "PZ"
//	byte 2    frame version (FrameVersion)
//	byte 3    codec ID
//	byte 4    element kind (always 1, float32)
//	uvarint   element count
//	...       codec payload
//
// Codec choice is negotiated per upload, not a config constant: clients
// offer the codecs they can encode (ReportRequest), the task spec names the
// server's preference, and Negotiate picks the codec for one upload — a
// client that offers nothing uploads raw. See docs/DEPLOYMENT.md "Wire
// format".
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// FrameVersion is the frame layout version; decoders reject others.
const FrameVersion = 1

// kindFloat32 is the one element kind a frame header may carry. The byte
// stays in the header so the frame layout, and every frame already on the
// wire, is unchanged.
const kindFloat32 = 1

// maxElements bounds the element count a frame may declare, so a corrupt
// or hostile header cannot make the decoder allocate unbounded memory
// before length validation happens at the application layer.
const maxElements = 1 << 27 // 512 MiB of float32s

// Codec encodes float32 vectors into frame payloads and back.
// Implementations must be stateless and safe for concurrent use, and
// decoding must be bit-stable: the same frame decodes to the same float
// bits on every run and architecture.
type Codec interface {
	// Name is the stable codec name ("none", "quantized", ...), the value
	// carried in negotiation messages and -compress flags.
	Name() string
	// ID is the one-byte wire identifier carried in frame headers.
	ID() byte
	// AppendFloats appends the payload encoding of src to dst.
	AppendFloats(dst []byte, src []float32) ([]byte, error)
	// DecodeFloatsInto decodes a payload of exactly len(dst) elements into
	// the caller-provided dst, so hot paths can lease the destination from
	// a pool instead of allocating per frame.
	DecodeFloatsInto(dst []float32, payload []byte) error
}

// codecs is the codec table, sorted by name: Names returns it in this
// order, and clients offer that list at report time, so the order is part
// of the wire.
var codecs = [...]Codec{
	// "flate" is the lossless streaming stage for tasks that cannot
	// tolerate quantization.
	Streamed{inner: None{}, name: "flate", id: 5},
	None{},
	Quantized{},
	Quantized16{},
	// "streamed" is int8 quantization under a flate stage.
	Streamed{inner: Quantized{}, name: "streamed", id: 4},
}

// ByName returns the codec named name (a -compress flag value or a
// negotiated upload codec).
func ByName(name string) (Codec, error) {
	for _, c := range codecs {
		if c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("compress: unknown codec %q (want one of %v)", name, Names())
}

// Names returns every codec name, sorted — what a client offers at report
// time unless told otherwise.
func Names() []string {
	names := make([]string, len(codecs))
	for i, c := range codecs {
		names[i] = c.Name()
	}
	return names
}

// Negotiate picks the codec for one upload: the server's preferred codec if
// the client offered it, otherwise "" (raw, uncompressed). A nil or empty
// offer always yields "".
func Negotiate(preferred string, offered []string) string {
	if preferred == "" || preferred == "none" {
		return ""
	}
	for _, name := range offered {
		if name == preferred {
			return preferred
		}
	}
	return ""
}

// --- frames ---

var frameMagic = [2]byte{'P', 'Z'}

// parseHeader validates a frame header and returns its codec, element
// count, and payload.
func parseHeader(frame []byte) (Codec, int, []byte, error) {
	if len(frame) < 6 || frame[0] != frameMagic[0] || frame[1] != frameMagic[1] {
		return nil, 0, nil, errors.New("compress: not a compression frame")
	}
	if frame[2] != FrameVersion {
		return nil, 0, nil, fmt.Errorf("compress: frame version %d, this build speaks %d", frame[2], FrameVersion)
	}
	var c Codec
	for _, cc := range codecs {
		if cc.ID() == frame[3] {
			c = cc
			break
		}
	}
	if c == nil {
		return nil, 0, nil, fmt.Errorf("compress: unknown codec ID %d", frame[3])
	}
	if frame[4] != kindFloat32 {
		return nil, 0, nil, fmt.Errorf("compress: unknown element kind %d", frame[4])
	}
	n, read := binary.Uvarint(frame[5:])
	if read <= 0 {
		return nil, 0, nil, errors.New("compress: truncated element count")
	}
	if n > maxElements {
		return nil, 0, nil, fmt.Errorf("compress: frame declares %d elements (max %d)", n, maxElements)
	}
	return c, int(n), frame[5+read:], nil
}

// CompressFloats encodes a float32 vector into a self-describing frame.
func CompressFloats(c Codec, src []float32) ([]byte, error) {
	return AppendCompressedFloats(nil, c, src)
}

// AppendCompressedFloats appends a self-describing float32 frame to dst, so
// a client uploading many chunks can reuse one scratch buffer instead of
// allocating a frame per chunk.
func AppendCompressedFloats(dst []byte, c Codec, src []float32) ([]byte, error) {
	dst = append(dst, frameMagic[0], frameMagic[1], FrameVersion, c.ID(), kindFloat32)
	return c.AppendFloats(binary.AppendUvarint(dst, uint64(len(src))), src)
}

// DecompressFloats decodes a frame produced by any codec in the table.
func DecompressFloats(frame []byte) ([]float32, error) {
	c, n, payload, err := parseHeader(frame)
	if err != nil {
		return nil, err
	}
	out := make([]float32, n)
	if err := c.DecodeFloatsInto(out, payload); err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressFloatsInto decodes a frame into the caller-provided dst, which
// must match the frame's declared element count exactly (the caller learns
// it from FrameInfo before leasing a buffer). The pooled counterpart of
// DecompressFloats on the aggregator's upload hot path.
func DecompressFloatsInto(dst []float32, frame []byte) error {
	c, n, payload, err := parseHeader(frame)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return fmt.Errorf("compress: frame declares %d elements, dst holds %d", n, len(dst))
	}
	return c.DecodeFloatsInto(dst, payload)
}

// FrameInfo reports a frame's codec name and element count without
// decoding the payload (bounds checks before a decode, and tests).
func FrameInfo(frame []byte) (name string, n int, err error) {
	c, n, _, err := parseHeader(frame)
	if err != nil {
		return "", 0, err
	}
	return c.Name(), n, nil
}

// --- the identity codec ---

// None is the identity codec: little-endian packed bytes, no compression.
type None struct{}

// Name implements Codec.
func (None) Name() string { return "none" }

// ID implements Codec.
func (None) ID() byte { return 1 }

// AppendFloats implements Codec: 4 bytes per element, little-endian IEEE
// 754 bits.
func (None) AppendFloats(dst []byte, src []float32) ([]byte, error) {
	return appendFloatsLE(dst, src), nil
}

// DecodeFloatsInto implements Codec.
func (None) DecodeFloatsInto(dst []float32, payload []byte) error {
	return decodeFloatsLEInto(dst, payload)
}
