package server_test

// The transport conformance suite: every integration, reconfiguration,
// multi-tenant, and chunk-reassembly test in this package runs once per
// backend — the deterministic in-memory transport.Network, sessions over
// HTTP via transport/httptransport, and sessions over raw TCP via
// transport/tcptransport — so every networked backend inherits the full Appendix E.3/E.4 behaviour
// matrix (failover, recovery, routing, mode switches) already proven on the
// in-memory fabric. Test bodies are shared verbatim; only the fabric
// construction is parameterized.

import (
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/transport/httptransport"
	"repro/internal/transport/tcptransport"
)

// testFabric is what the suite needs from a backend: the RPC surface the
// components use plus the fault-injection surface the failure drills use.
type testFabric interface {
	transport.Fabric
	transport.FaultInjector
}

// fabricFactory builds one backend under test.
type fabricFactory struct {
	name string
	make func(t *testing.T, seed int64) testFabric
}

// networked reports whether the cell crosses real sockets (and therefore
// elides acks on streamed chunk trains and exposes Stats).
func (fx fabricFactory) networked() bool { return fx.name != "inmem" }

// The cells. Only the carrier (inmem | http | tcp) in a name still selects
// anything. "bin" dates from when the codec was an option, "stream" from
// when the client runtime's dedicated session was one, and "deflate" from
// when frames could be DEFLATE-compressed per frame: every networked cell
// frames bin, uncompressed, and every participation rides its own session
// now. So every http-* name builds the same fabric, and tcp and
// tcp-bin-deflate build the same fabric — 3 distinct configurations under
// 8 names. The extra names stay listed only because tier-1's floor pins
// every cell of every test by name; ROADMAP item 6 drops them.
var fabricFactories = func() []fabricFactory {
	names := []string{"inmem", "http", "http-bin", "http-deflate", "http-deflate-bin",
		"http-stream", "tcp", "tcp-bin-deflate"}
	out := make([]fabricFactory, len(names))
	for i, name := range names {
		out[i] = fabricFactory{name: name, make: fabricMaker(name)}
	}
	return out
}()

func fabricMaker(name string) func(t *testing.T, seed int64) testFabric {
	return func(t *testing.T, seed int64) testFabric {
		var f interface {
			testFabric
			Close() error
		}
		var err error
		switch {
		case name == "inmem":
			return transport.NewNetwork(seed)
		case strings.HasPrefix(name, "http"):
			f, err = httptransport.New(httptransport.Options{Listen: "127.0.0.1:0", Seed: seed})
		default:
			f, err = tcptransport.New(tcptransport.Options{Listen: "127.0.0.1:0", Seed: seed})
		}
		if err != nil {
			t.Fatalf("starting %s fabric: %v", name, err)
		}
		t.Cleanup(func() { _ = f.Close() })
		return f
	}
}

// forEachFabric runs a conformance test body twice per backend, as
// <cell>/direct and <cell>/via-selector. The two names selected the
// selector's forwarding mode while it had two; the selector has one now, so
// both build the same thing and stay only for tier-1's floor (see
// fabricFactories).
func forEachFabric(t *testing.T, run func(t *testing.T, fx fabricFactory)) {
	for _, fx := range fabricFactories {
		runBothModes(t, fx, run)
	}
}

func runBothModes(t *testing.T, fx fabricFactory, run func(t *testing.T, fx fabricFactory)) {
	for _, mode := range []string{"direct", "via-selector"} {
		t.Run(fx.name+"/"+mode, func(t *testing.T) { run(t, fx) })
	}
}

// newTestSelector constructs the selectors of every conformance test.
func newTestSelector(name string, net transport.Fabric, coordinator string, timings server.Timings) *server.Selector {
	return server.NewSelector(name, net, coordinator, timings)
}
