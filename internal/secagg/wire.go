package secagg

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/attest"
	"repro/internal/dh"
	"repro/internal/merklelog"
	"repro/internal/tee"
)

// The wire encodings below are deliberately hand-rolled: every byte that
// crosses the enclave boundary is metered for Figure 6, so the experiment's
// honesty depends on the payloads being exactly what the protocol ships.

// InitialBundle is what a checking-in client receives: the TSA's DH initial
// message, the TSA's DH identity key, the attestation quote binding both,
// and the verifiable-log evidence that the quoted binary is published.
type InitialBundle struct {
	DH          dh.InitialMessage
	DHVerifyKey []byte
	Quote       attest.Quote

	// Log evidence (Appendix C.2): the snapshot and an inclusion proof for
	// the quoted binary hash.
	LogRoot   merklelog.Hash
	LogSize   uint64
	LeafIndex uint64
	Inclusion []merklelog.Hash
}

// reportData is the byte string the attestation quote binds: the DH initial
// message plus the TSA's DH identity key.
func reportData(msg dh.InitialMessage, verifyKey []byte) []byte {
	buf := make([]byte, 0, 8+len(msg.PublicKey)+len(verifyKey))
	var idx [8]byte
	binary.BigEndian.PutUint64(idx[:], msg.Index)
	buf = append(buf, idx[:]...)
	buf = append(buf, msg.PublicKey...)
	return append(buf, verifyKey...)
}

// Upload is what a participating client produces: the masked update for the
// untrusted server plus the envelope the server forwards to the TSA.
type Upload struct {
	Index      uint64
	Masked     []uint32 // one-time-padded fixed-point update
	Completing []byte   // DH completing message
	EncSeed    []byte   // AES-GCM sealed mask seed
}

// --- deployment recipe serialization (transport wire format) ---
//
// A Deployment holds host-local trust anchors — the live enclave, the
// hardware attestation root, the verifiable log. None of those can
// meaningfully cross a process boundary (an enclave does not serialize, and
// shipping a private attestation key would defeat its purpose). What a task
// spec carries over the network is therefore a *recipe*: the public
// protocol parameters (internal/server's TaskSpec field walk writes Params
// and nothing else). The receiving host launches a fresh TSA from the
// recipe, and clients pick up that host's trust material through the normal
// report path (ReportResponse.SecAggTrust), so every deployment stays
// self-consistent. This mirrors the paper's operational reality: each
// Aggregator host runs its own enclave (Section 5, Appendix C).

// wireBinary is the trusted binary a recipe-reconstructed TSA is built
// from. In this simulation the binary's content only feeds the measurement
// clients verify against the deployment's own log, so a fixed label keeps
// reconstructed deployments self-consistent.
var wireBinary = []byte("papaya-tsa-binary-wire/v1")

// Live returns a deployment ready to serve: d itself when its enclave is
// running, otherwise a fresh local launch from the recipe. Decoding is
// deliberately inert — task specs ride every heartbeat, and decoding a
// report must not launch enclaves — so the host that actually *places* a
// task (server.Aggregator) calls Live once at placement time.
func (d *Deployment) Live() (*Deployment, error) {
	if d.Enclave != nil {
		return d, nil
	}
	nd, err := NewDeployment(d.Params, wireBinary, tee.DefaultCostModel(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("secagg: launching deployment from wire recipe: %w", err)
	}
	return nd, nil
}

// --- enclave boundary payload encodings ---

func appendBytes(buf, b []byte) []byte {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(b)))
	buf = append(buf, n[:]...)
	return append(buf, b...)
}

func readBytes(buf []byte) ([]byte, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, errors.New("secagg: truncated length prefix")
	}
	n := binary.BigEndian.Uint32(buf)
	buf = buf[4:]
	if uint32(len(buf)) < n {
		return nil, nil, errors.New("secagg: truncated field")
	}
	return buf[:n], buf[n:], nil
}

// encodeSubmit serializes the (index, completing, envelope) triple the
// server forwards into the enclave — the O(1)-per-client payload.
func encodeSubmit(index uint64, completing, encSeed []byte) []byte {
	buf := make([]byte, 8, 8+4+len(completing)+4+len(encSeed))
	binary.BigEndian.PutUint64(buf, index)
	buf = appendBytes(buf, completing)
	return appendBytes(buf, encSeed)
}

func decodeSubmit(payload []byte) (index uint64, completing, encSeed []byte, err error) {
	if len(payload) < 8 {
		return 0, nil, nil, errors.New("secagg: truncated submit payload")
	}
	index = binary.BigEndian.Uint64(payload)
	completing, rest, err := readBytes(payload[8:])
	if err != nil {
		return 0, nil, nil, err
	}
	encSeed, rest, err = readBytes(rest)
	if err != nil {
		return 0, nil, nil, err
	}
	if len(rest) != 0 {
		return 0, nil, nil, errors.New("secagg: trailing bytes in submit payload")
	}
	return index, completing, encSeed, nil
}

// encodeGroupVec serializes a group vector (the unmasking vector leaving the
// enclave, or a full masked model entering the naive TSA).
func encodeGroupVec(v []uint32) []byte {
	buf := make([]byte, 4*len(v))
	for i, x := range v {
		binary.BigEndian.PutUint32(buf[4*i:], x)
	}
	return buf
}

func decodeGroupVec(buf []byte, wantLen int) ([]uint32, error) {
	if len(buf) != 4*wantLen {
		return nil, fmt.Errorf("secagg: group vector is %d bytes, want %d", len(buf), 4*wantLen)
	}
	v := make([]uint32, wantLen)
	for i := range v {
		v[i] = binary.BigEndian.Uint32(buf[4*i:])
	}
	return v, nil
}

// encodeInitialBatch serializes the DH initial messages + quotes leaving the
// enclave when the server replenishes its pool.
func encodeInitialBatch(msgs []dh.InitialMessage, quotes []attest.Quote, verifyKey []byte) []byte {
	var buf []byte
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(msgs)))
	buf = append(buf, n[:]...)
	buf = appendBytes(buf, verifyKey)
	for i, m := range msgs {
		var idx [8]byte
		binary.BigEndian.PutUint64(idx[:], m.Index)
		buf = append(buf, idx[:]...)
		buf = appendBytes(buf, m.PublicKey)
		buf = appendBytes(buf, m.Signature)
		q := quotes[i]
		buf = append(buf, q.BinaryHash[:]...)
		buf = append(buf, q.ParamsHash[:]...)
		buf = append(buf, q.ReportData[:]...)
		buf = appendBytes(buf, q.Signature)
	}
	return buf
}

func decodeInitialBatch(buf []byte) (msgs []dh.InitialMessage, quotes []attest.Quote, verifyKey []byte, err error) {
	if len(buf) < 4 {
		return nil, nil, nil, errors.New("secagg: truncated batch header")
	}
	count := binary.BigEndian.Uint32(buf)
	buf = buf[4:]
	verifyKey, buf, err = readBytes(buf)
	if err != nil {
		return nil, nil, nil, err
	}
	for i := uint32(0); i < count; i++ {
		if len(buf) < 8 {
			return nil, nil, nil, errors.New("secagg: truncated message index")
		}
		var m dh.InitialMessage
		m.Index = binary.BigEndian.Uint64(buf)
		buf = buf[8:]
		if m.PublicKey, buf, err = readBytes(buf); err != nil {
			return nil, nil, nil, err
		}
		if m.Signature, buf, err = readBytes(buf); err != nil {
			return nil, nil, nil, err
		}
		var q attest.Quote
		if len(buf) < 96 {
			return nil, nil, nil, errors.New("secagg: truncated quote")
		}
		copy(q.BinaryHash[:], buf)
		copy(q.ParamsHash[:], buf[32:])
		copy(q.ReportData[:], buf[64:])
		buf = buf[96:]
		if q.Signature, buf, err = readBytes(buf); err != nil {
			return nil, nil, nil, err
		}
		msgs = append(msgs, m)
		quotes = append(quotes, q)
	}
	if len(buf) != 0 {
		return nil, nil, nil, errors.New("secagg: trailing bytes in batch")
	}
	return msgs, quotes, verifyKey, nil
}
