// The streaming stage: a DEFLATE layer composed over an inner codec's
// payload. Quantization removes precision; flate then removes redundancy
// (runs of identical quantized values, repeated byte patterns), which is
// where the "streaming compression" half of the ROADMAP item lives. Codecs
// whose Streams() is true also opt a networked fabric into deflating large
// wire frames (streamcore.Options.Compress).

package compress

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// Streamed composes an inner codec with a DEFLATE byte stage: the frame
// payload is the flate stream of the inner codec's payload. Decoding
// inflates, then delegates, so Streamed inherits the inner codec's
// bit-stability (flate is lossless).
type Streamed struct {
	inner Codec
	name  string
	id    byte
}

// NewStreamed wraps inner with a flate stage under the given registry
// identity.
func NewStreamed(inner Codec, name string, id byte) Streamed {
	return Streamed{inner: inner, name: name, id: id}
}

// Name implements Codec.
func (s Streamed) Name() string { return s.name }

// ID implements Codec.
func (s Streamed) ID() byte { return s.id }

// Streams implements Codec.
func (s Streamed) Streams() bool { return true }

// AppendFloats implements Codec.
func (s Streamed) AppendFloats(dst []byte, src []float32) ([]byte, error) {
	payload, err := s.inner.AppendFloats(nil, src)
	if err != nil {
		return nil, err
	}
	return appendDeflated(dst, payload)
}

// DecodeFloats implements Codec. The inflated size is bounded by what any
// inner float payload of n elements could need (4 bytes/element plus
// scale header), so a flate bomb cannot out-allocate the declared count.
func (s Streamed) DecodeFloats(payload []byte, n int) ([]float32, error) {
	inner, err := inflateCapped(payload, 4*int64(n)+64)
	if err != nil {
		return nil, err
	}
	return s.inner.DecodeFloats(inner, n)
}

// DecodeFloatsInto implements Codec: inflate (same bomb bound), then
// delegate to the inner codec's in-place decode.
func (s Streamed) DecodeFloatsInto(dst []float32, payload []byte) error {
	inner, err := inflateCapped(payload, 4*int64(len(dst))+64)
	if err != nil {
		return err
	}
	return s.inner.DecodeFloatsInto(dst, inner)
}

// AppendUints implements Codec.
func (s Streamed) AppendUints(dst []byte, src []uint32) ([]byte, error) {
	payload, err := s.inner.AppendUints(nil, src)
	if err != nil {
		return nil, err
	}
	return appendDeflated(dst, payload)
}

// DecodeUints implements Codec. The bound covers the widest inner uint
// payload: a varint delta stream costs at most 5 bytes/element.
func (s Streamed) DecodeUints(payload []byte, n int) ([]uint32, error) {
	inner, err := inflateCapped(payload, 5*int64(n)+64)
	if err != nil {
		return nil, err
	}
	return s.inner.DecodeUints(inner, n)
}

// DecodeUintsInto implements Codec; see DecodeFloatsInto.
func (s Streamed) DecodeUintsInto(dst []uint32, payload []byte) error {
	inner, err := inflateCapped(payload, 5*int64(len(dst))+64)
	if err != nil {
		return err
	}
	return s.inner.DecodeUintsInto(dst, inner)
}

// DeflateBytes compresses an opaque byte stream (an encoded wire frame)
// with DEFLATE — the transport's per-frame stage (wire.StreamFlagDeflate).
func DeflateBytes(b []byte) ([]byte, error) {
	out, err := appendDeflated(nil, b)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// InflateBytes reverses DeflateBytes, rejecting streams that inflate
// beyond max bytes. Transport bodies have no element count to bound by,
// so the caller must supply its own body limit — a deflate bomb must not
// buy an attacker orders-of-magnitude memory amplification on an
// unauthenticated route.
func InflateBytes(b []byte, max int64) ([]byte, error) {
	return inflateCapped(b, max)
}

// InflateHead inflates at most the first n bytes of a DEFLATE stream (all
// of it when shorter): enough to read a frame's head without inflating its
// body.
func InflateHead(b []byte, n int) ([]byte, error) {
	in := getInflater(b)
	defer putInflater(in)
	head := make([]byte, n)
	k, err := io.ReadFull(in.r, head)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		err = nil
	}
	if err != nil {
		return nil, fmt.Errorf("compress: inflating payload: %w", err)
	}
	return head[:k], nil
}

// Writers and readers are pooled and Reset per frame: flate.NewWriter
// allocates its compression state on every call, about half a millisecond
// and 1.2 MB per 1 KiB wire frame on a 2-vCPU x86-64 host, and a networked
// fabric deflates once per frame and direction (a relaying selector
// twice). A Reset writer emits exactly what a new one would.
type deflater struct {
	w   *flate.Writer
	out appendWriter
}

// appendWriter appends everything written to it to b.
type appendWriter struct{ b []byte }

func (a *appendWriter) Write(p []byte) (int, error) {
	a.b = append(a.b, p...)
	return len(p), nil
}

type inflater struct {
	src bytes.Reader
	r   io.ReadCloser
}

var deflaters, inflaters sync.Pool

func appendDeflated(dst, payload []byte) ([]byte, error) {
	d, _ := deflaters.Get().(*deflater)
	if d == nil {
		d = new(deflater)
		// BestSpeed: the upload path is hot and quantization already did
		// the heavy lifting; higher levels buy single-digit percents at
		// multiples of the CPU cost.
		w, err := flate.NewWriter(&d.out, flate.BestSpeed)
		if err != nil {
			return nil, err
		}
		d.w = w
	}
	d.out.b = dst
	d.w.Reset(&d.out)
	_, err := d.w.Write(payload)
	if err == nil {
		err = d.w.Close()
	}
	out := d.out.b
	d.out.b = nil
	deflaters.Put(d)
	if err != nil {
		return nil, err
	}
	return out, nil
}

func getInflater(payload []byte) *inflater {
	in, _ := inflaters.Get().(*inflater)
	if in == nil {
		in = new(inflater)
		in.src.Reset(payload)
		in.r = flate.NewReader(&in.src)
		return in
	}
	in.src.Reset(payload)
	// Reset cannot fail without a preset dictionary.
	_ = in.r.(flate.Resetter).Reset(&in.src, nil)
	return in
}

func putInflater(in *inflater) {
	in.src.Reset(nil) // the pool must not pin the caller's frame
	inflaters.Put(in)
}

// inflateCapped inflates at most max bytes and rejects streams that would
// exceed it — the decompression-bomb guard.
func inflateCapped(payload []byte, max int64) ([]byte, error) {
	in := getInflater(payload)
	defer putInflater(in)
	out, err := io.ReadAll(io.LimitReader(in.r, max+1))
	if err != nil {
		return nil, fmt.Errorf("compress: inflating payload: %w", err)
	}
	if int64(len(out)) > max {
		return nil, fmt.Errorf("compress: inflated payload exceeds %d-byte bound", max)
	}
	return out, nil
}

func init() {
	// "streamed" is the negotiable default pairing: int8 quantization (or
	// delta+varint for uints) under a flate stage. "flate" is the lossless
	// streaming-only stage for tasks that cannot tolerate quantization.
	Register(NewStreamed(Quantized{}, "streamed", 4))
	Register(NewStreamed(None{}, "flate", 5))
}
