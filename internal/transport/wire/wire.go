// Package wire is the versioned message format the networked transport
// backends use. The in-memory transport.Network passes payloads between
// goroutines as plain `any` values; crossing a process boundary instead
// forces an explicit wire format: every message type that may appear as a
// call payload or response is registered here under a stable name, and the
// one frame format (Binary, binary.go) carries it — hot messages in a
// hand-rolled little-endian form, cold ones as gob inside the same frame.
//
// # Versioning rules
//
//  1. Every frame starts with a magic and the envelope version (Version),
//     as does the hello that opens a stream. A decoder rejects a magic or
//     version it does not know and the transport kills the session —
//     mixed-version fleets fail loudly instead of corrupting task state.
//     There is one wire generation and nothing is negotiated: a peer either
//     speaks it or is refused.
//  2. Registered names are namespaced "papaya/v1/...". Adding a field to a
//     cold (gob-in-frame) message is compatible: missing fields default to
//     their zero values. Removing or renaming a field, changing its type,
//     or changing a hot message's hand-rolled layout is not: bump Version.
//  3. Handlers must treat zero values as "absent": empty slices and maps
//     may decode as nil.
//
// The registry is populated by the packages that own the messages
// (internal/server registers the Section 4/6 control-plane payloads at init
// time), so the set of types that can cross the network is explicit and
// testable: see Names and NewValue.
package wire

import (
	"encoding/gob"
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// Version is the envelope version every frame and stream hello carries.
// Decoders reject any other value (versioning rule 1).
const Version = 1

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

var (
	regMu      sync.RWMutex
	nameToType = make(map[string]reflect.Type)
	typeToName = make(map[reflect.Type]string)
)

// Register records a message type under a stable wire name and registers it
// with gob so it can travel inside interface-typed fields. sample is a zero
// value of the concrete type (not a pointer). Registering the same pair
// twice is a no-op; re-registering a name for a different type panics, as
// does reusing a type under a second name — both are wire-format bugs.
func Register(name string, sample any) {
	t := reflect.TypeOf(sample)
	if t == nil {
		panic("wire: cannot register nil")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if prev, ok := nameToType[name]; ok {
		if prev != t {
			panic(fmt.Sprintf("wire: name %q already registered for %v", name, prev))
		}
		return
	}
	if prev, ok := typeToName[t]; ok {
		panic(fmt.Sprintf("wire: type %v already registered as %q", t, prev))
	}
	nameToType[name] = t
	typeToName[t] = name
	// gob predefines the unnamed primitives (string, bool, ints, floats)
	// for interface transmission under their own names; re-registering them
	// panics.
	if t.PkgPath() != "" || t.Kind() == reflect.Struct || t.Kind() == reflect.Slice ||
		t.Kind() == reflect.Map || t.Kind() == reflect.Ptr || t.Kind() == reflect.Array {
		gob.RegisterName(name, sample)
	}
}

// Names returns every registered wire name, sorted — the explicit set of
// messages that may cross the network (round-trip tests enumerate it).
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(nameToType))
	for name := range nameToType {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewValue returns a new zero value of the type registered under name.
func NewValue(name string) (any, error) {
	regMu.RLock()
	t, ok := nameToType[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("wire: unregistered message type %q", name)
	}
	return reflect.New(t).Elem().Interface(), nil
}

func lookupName(v any) (string, error) {
	regMu.RLock()
	name, ok := typeToName[reflect.TypeOf(v)]
	regMu.RUnlock()
	if !ok {
		return "", fmt.Errorf("wire: message type %T is not registered", v)
	}
	return name, nil
}
