// Package wire is the versioned message format the networked transport
// backends use. The in-memory transport.Network passes payloads between
// goroutines as plain `any` values; crossing a process boundary instead
// forces an explicit wire format: every message type that may appear as a
// call payload or response is registered here under a one-byte ID and a
// stable name, and the one frame format (Binary, binary.go) carries it in
// the message's one field walk (Fields).
//
// # Versioning rules
//
//  1. Every frame starts with a magic and the envelope version (Version),
//     as does the hello that opens a stream. A decoder rejects a magic or
//     version it does not know and the transport kills the session —
//     mixed-version fleets fail loudly instead of corrupting task state.
//     There is one wire generation and nothing is negotiated: a peer either
//     speaks it or is refused.
//  2. Every message has one fixed layout; any field change bumps Version.
//  3. Handlers must treat zero values as "absent": empty slices and maps
//     may decode as nil.
//
// The registry is populated by the packages that own the messages
// (internal/server registers the Section 4/6 control-plane payloads at init
// time), so the set of types that can cross the network is explicit and
// testable: see Names.
package wire

import (
	"fmt"
	"sort"
)

// Version is the envelope version every frame and stream hello carries.
// Decoders reject any other value (versioning rule 1).
const Version = 2

// Request is one RPC crossing the fabric: who is calling, which method, and
// the registered payload message.
type Request struct {
	From    string
	Method  string
	Payload any
}

// Response is the other half: either a payload or an error. Kind carries
// the transport-level error class so fault semantics (ErrCrashed,
// ErrDropped, ...) survive serialization; see transport.KindToError.
type Response struct {
	Payload any
	Err     string
	Kind    string
}

// --- registry ---

// entry is one registered message: its stable name and its decoder.
type entry struct {
	name string
	dec  func(body []byte) (any, error)
}

// registry is the one message table, keyed by the payload's leading ID
// byte. It is written only from package init functions (Register), so
// decoding reads it without a lock.
var registry = [256]entry{
	tagStr:  {"papaya/v1/string", decodeString},
	tagBool: {"papaya/v1/bool", decodeBool},
}

// Register records a message under its one-byte ID and stable wire name,
// with the decoder that reverses its AppendBinary. Call it from an init
// function. Reusing an ID or a name, or claiming an ID below BinaryIDMin,
// panics: each is a wire-format bug, caught at init time.
func Register(id byte, name string, dec func(body []byte) (any, error)) {
	if id < BinaryIDMin {
		panic(fmt.Sprintf("wire: binary ID %d is reserved (min %d)", id, BinaryIDMin))
	}
	if name == "" || dec == nil {
		panic(fmt.Sprintf("wire: binary ID %d registered without a name or decoder", id))
	}
	if prev := registry[id].name; prev != "" {
		panic(fmt.Sprintf("wire: binary ID %d already registered as %q", id, prev))
	}
	for i := range registry {
		if registry[i].name == name {
			panic(fmt.Sprintf("wire: name %q already registered under ID %d", name, i))
		}
	}
	registry[id] = entry{name: name, dec: dec}
}

// Names returns every registered wire name, sorted — the explicit set of
// messages that may cross the network (round-trip tests enumerate it).
func Names() []string {
	var out []string
	for _, e := range registry {
		if e.name != "" {
			out = append(out, e.name)
		}
	}
	sort.Strings(out)
	return out
}
