// Package httptransport is the HTTP transport.Fabric: the networked fabric
// of internal/transport/streamcore carried over plain stdlib net/http, for
// deployments where only HTTP crosses the network boundary. Everything
// above the connection (node and route tables, fault injection, pooled
// calls, dedicated sessions, dispatch, discovery through the reserved
// _fabric node) is the shared streamcore.Fabric this package embeds; what
// lives here is how a connection is dialed and accepted — one long-lived
// full-duplex POST per session (httpstream.go).
//
// One Fabric instance backs one process: nodes registered locally are
// served from this process's HTTP listener; calls to any other node are
// routed by name through a route table (name -> peer base URL) populated
// either statically (AddRoute) or by peers announcing themselves
// (Advertise). Every call — even node-to-node within one process — crosses
// the real HTTP stack, so a single-process deployment exercises exactly the
// code paths a multi-host one does.
//
// Injected faults are per-fabric (this process's view); between real
// processes, a dead peer surfaces as a connection error and maps onto the
// same transport.ErrCrashed that components already retry through.
package httptransport

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/streamcore"
)

// Compile-time interface checks against the contracts in internal/transport.
var (
	_ transport.Fabric        = (*Fabric)(nil)
	_ transport.FaultInjector = (*Fabric)(nil)
	_ transport.StreamFabric  = (*Fabric)(nil)
)

// streamPath is the one route the fabric serves: POST streamPath+<node>
// opens a session whose request and response bodies are frame sequences.
const streamPath = "/papaya/v2/stream/"

// Options configures a Fabric.
type Options struct {
	// Listen is the TCP listen address (e.g. "127.0.0.1:8070"; port 0
	// picks a free port).
	Listen string
	// Codec survives only until benchmark/harness.go stops setting it: ""
	// or "bin" (the one frame format); anything else is an error.
	Codec string
	// AdvertiseURL is the base URL peers should use to reach this fabric.
	// Defaults to "http://<bound address>", which is correct on localhost;
	// set it explicitly when listening on 0.0.0.0 behind NAT or a proxy.
	AdvertiseURL string
	// Stream is ignored (every call rides a session); it survives only
	// until benchmark/harness.go stops setting it.
	Stream bool
	// AckElide is ignored (sessions always elide); it survives only until
	// benchmark/harness.go stops setting it.
	AckElide bool
	// Seed seeds the probabilistic-loss RNG (SetLoss); 0 is a valid seed.
	Seed int64
	// CallTimeout bounds one call end to end (default 30s).
	CallTimeout time.Duration
}

// Fabric is the HTTP-backed transport.Fabric for one process: the shared
// streamcore.Fabric plus an HTTP listener. It is safe for concurrent use.
type Fabric struct {
	*streamcore.Fabric
	srv *http.Server
	// client issues the long-lived stream POSTs. It has no overall timeout
	// — a stream lives for a whole session; per-call deadlines are enforced
	// by the session engine instead.
	client *http.Client

	closeOnce sync.Once
}

// New binds the listener and starts serving. The returned fabric is ready
// for Register/Call immediately; Close releases the port.
func New(opts Options) (*Fabric, error) {
	if opts.Codec != "" && opts.Codec != "bin" {
		return nil, fmt.Errorf("httptransport: unknown codec %q (the one wire format is bin)", opts.Codec)
	}
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("httptransport: listen %s: %w", opts.Listen, err)
	}
	baseURL := opts.AdvertiseURL
	if baseURL == "" {
		baseURL = "http://" + ln.Addr().String()
	}
	// One pooled *http.Transport per fabric with a generous idle pool: the
	// control plane makes many small concurrent calls to few hosts, the
	// worst case for net/http's default 2-per-host idle cap.
	f := &Fabric{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64, MaxIdleConns: 256}}}
	f.Fabric = streamcore.NewFabric(streamcore.Options{
		Prefix: "httptransport", Addr: baseURL,
		Seed: opts.Seed, CallTimeout: opts.CallTimeout, Dial: f.dial,
	})
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+streamPath+"{node}", f.handleStream)
	f.srv = &http.Server{Handler: mux}
	go func() { _ = f.srv.Serve(ln) }()
	return f, nil
}

// Close stops serving, tears down live stream sessions, and closes idle
// connections. It is idempotent.
func (f *Fabric) Close() error {
	var err error
	f.closeOnce.Do(func() {
		f.CloseSessions()
		err = f.srv.Close()
		f.client.CloseIdleConnections()
	})
	return err
}
