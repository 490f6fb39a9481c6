package server_test

// The transport conformance suite: every integration, reconfiguration,
// multi-tenant, and chunk-reassembly test in this package runs once per
// backend — the deterministic in-memory transport.Network, sessions over
// HTTP via transport/httptransport, and sessions over raw TCP via
// transport/tcptransport, each with and without frame-level deflate — so
// every networked backend inherits the full Appendix E.3/E.4 behaviour
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

// fabricFactory builds one backend under test. routing selects the selector
// mode the crossing chose for this run: false constructs plain forwarding
// selectors, true constructs routing-tier selectors (pooled sessions,
// list-agents discovery, rendezvous route hints) — see newTestSelector.
// stream is handed to every client.Runtime a test builds (Runtime.Stream):
// true rides each participation on a dedicated session with no-ack chunk
// trains, false on pooled one-shot calls.
type fabricFactory struct {
	name    string
	routing bool
	stream  bool
	make    func(t *testing.T, seed int64) testFabric
}

// networked reports whether the cell crosses real sockets (and therefore
// elides acks on streamed chunk trains and exposes Stats).
func (fx fabricFactory) networked() bool { return fx.name != "inmem" }

// The cells. A name is read as tokens: the carrier (inmem | http | tcp),
// "deflate" when large frames are DEFLATE-compressed (Options.Compress),
// "stream" when the test's client runtimes ride dedicated sessions. "bin"
// dates from when the codec was an option: every networked cell frames bin
// now, so http-bin and http-deflate-bin construct what http and
// http-deflate do. They stay listed only because tier-1's floor pins every
// cell of every test by name; ROADMAP "Smaller open items" asks the next
// re-anchor to drop them (16 cells -> 12).
var fabricFactories = func() []fabricFactory {
	names := []string{"inmem", "http", "http-bin", "http-deflate", "http-deflate-bin",
		"http-stream", "tcp", "tcp-bin-deflate"}
	out := make([]fabricFactory, len(names))
	for i, name := range names {
		out[i] = fabricFactory{name: name, stream: strings.Contains(name, "stream"), make: fabricMaker(name)}
	}
	return out
}()

func fabricMaker(name string) func(t *testing.T, seed int64) testFabric {
	compress := ""
	if strings.Contains(name, "deflate") {
		compress = "streamed"
	}
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
			f, err = httptransport.New(httptransport.Options{Listen: "127.0.0.1:0", Seed: seed, Compress: compress})
		default:
			f, err = tcptransport.New(tcptransport.Options{Listen: "127.0.0.1:0", Seed: seed, Compress: compress})
		}
		if err != nil {
			t.Fatalf("starting %s fabric: %v", name, err)
		}
		t.Cleanup(func() { _ = f.Close() })
		return f
	}
}

// forEachFabric runs a conformance test body once per backend per selector
// mode: direct (one fabric call per forwarded request, the classic
// selector) and via-selector (the routing tier — pooled streamed sessions,
// live-aggregator discovery, rendezvous route hints). The crossing proves
// the routing tier is behaviour-compatible on every backend: every cell
// inherits the full failover/recovery/reconfigure/multitenant matrix.
func forEachFabric(t *testing.T, run func(t *testing.T, fx fabricFactory)) {
	modes := []struct {
		name    string
		routing bool
	}{
		{name: "direct", routing: false},
		{name: "via-selector", routing: true},
	}
	for _, base := range fabricFactories {
		for _, mode := range modes {
			fx := base
			fx.routing = mode.routing
			t.Run(base.name+"/"+mode.name, func(t *testing.T) { run(t, fx) })
		}
	}
}

// newTestSelector constructs a selector in the mode the conformance
// crossing selected for fx; every selector a conformance test builds must
// go through it so the via-selector half of the matrix actually exercises
// the routing tier.
func newTestSelector(name string, net transport.Fabric, coordinator string, timings server.Timings, fx fabricFactory) *server.Selector {
	return server.NewSelectorWith(name, net, coordinator, timings,
		server.SelectorOptions{Routing: fx.routing})
}
