// The streaming stage: a DEFLATE layer composed over an inner codec's
// payload. Quantization removes precision; flate then removes redundancy
// (runs of identical quantized values, repeated byte patterns).

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

// Name implements Codec.
func (s Streamed) Name() string { return s.name }

// ID implements Codec.
func (s Streamed) ID() byte { return s.id }

// AppendFloats implements Codec. The inner payload is sized up front (no
// inner codec needs more than 4 bytes per element plus an 8-byte scale),
// so it costs one allocation rather than a growth sequence.
func (s Streamed) AppendFloats(dst []byte, src []float32) ([]byte, error) {
	payload, err := s.inner.AppendFloats(make([]byte, 0, 4*len(src)+8), src)
	if err != nil {
		return nil, err
	}
	return appendDeflated(dst, payload)
}

// DecodeFloatsInto implements Codec: inflate, then delegate to the inner
// codec. The inflated size is bounded by what any inner payload of
// len(dst) elements could need (4 bytes/element plus scale header), so a
// flate bomb cannot out-allocate the declared count.
func (s Streamed) DecodeFloatsInto(dst []float32, payload []byte) error {
	inner, err := inflateCapped(payload, 4*int64(len(dst))+64)
	if err != nil {
		return err
	}
	return s.inner.DecodeFloatsInto(dst, inner)
}

// Writers and readers are pooled and Reset per frame: flate.NewWriter
// allocates its compression state on every call, about half a millisecond
// and 1.2 MB per 1 KiB frame on a 2-vCPU x86-64 host, and a client
// deflates once per upload chunk. A Reset writer emits exactly what a new
// one would.
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

// inflateCapped inflates at most max bytes and rejects streams that would
// exceed it — the decompression-bomb guard.
func inflateCapped(payload []byte, max int64) ([]byte, error) {
	in, _ := inflaters.Get().(*inflater)
	if in == nil {
		in = new(inflater)
		in.src.Reset(payload)
		in.r = flate.NewReader(&in.src)
	} else {
		in.src.Reset(payload)
		// Reset cannot fail without a preset dictionary.
		_ = in.r.(flate.Resetter).Reset(&in.src, nil)
	}
	defer func() {
		in.src.Reset(nil) // the pool must not pin the caller's frame
		inflaters.Put(in)
	}()
	out, err := io.ReadAll(io.LimitReader(in.r, max+1))
	if err != nil {
		return nil, fmt.Errorf("compress: inflating payload: %w", err)
	}
	if int64(len(out)) > max {
		return nil, fmt.Errorf("compress: inflated payload exceeds %d-byte bound", max)
	}
	return out, nil
}
