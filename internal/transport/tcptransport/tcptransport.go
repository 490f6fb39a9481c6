// Package tcptransport is the raw-TCP transport.Fabric: the networked
// fabric of internal/transport/streamcore on bare TCP connections carrying
// length-prefixed wire frames — no request routing, no header parsing, no
// per-call connection lifecycle. Everything above the socket (node and
// route tables, fault injection, pooled calls, dedicated sessions, dispatch,
// discovery through the reserved _fabric node) is the shared
// streamcore.Fabric this package embeds; what lives here is how a
// connection is dialed and accepted.
//
// Protocol: a connection opens with one stream frame whose payload is a
// wire.StreamHello naming the node every subsequent request addresses (the
// HTTP transport carries this in the URL path). After the hello, the
// connection is a streaming session: pipelined wire.Binary request frames
// answered in order by response frames. A hello or frame whose magic,
// version or flags this build does not know closes the connection (wire
// versioning rule 1), and the caller sees transport.ErrCrashed.
package tcptransport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/streamcore"
	"repro/internal/transport/wire"
)

// Compile-time interface checks against the contracts in internal/transport.
var (
	_ transport.Fabric        = (*Fabric)(nil)
	_ transport.FaultInjector = (*Fabric)(nil)
	_ transport.StreamFabric  = (*Fabric)(nil)
)

// Scheme prefixes a TCP fabric's advertised base URL ("tcp://host:port"),
// so tooling can pick the backend from an address the way it picks HTTP
// from "http://".
const Scheme = "tcp://"

// Options configures a Fabric.
type Options struct {
	// Listen is the TCP listen address (e.g. "127.0.0.1:7071"; port 0
	// picks a free port).
	Listen string
	// Codec survives only until benchmark/harness.go stops setting it: ""
	// or "bin" (the one frame format); anything else is an error.
	Codec string
	// AdvertiseAddr is the address peers should dial, with or without the
	// tcp:// prefix. Defaults to the bound address, which is correct on
	// localhost; set it explicitly behind NAT.
	AdvertiseAddr string
	// Seed seeds the probabilistic-loss RNG (SetLoss); 0 is a valid seed.
	Seed int64
	// CallTimeout bounds one call end to end (default 30s).
	CallTimeout time.Duration
	// AckElide is ignored (sessions always elide); it survives only until
	// benchmark/harness.go stops setting it.
	AckElide bool
}

// Fabric is the raw-TCP transport.Fabric for one process: the shared
// streamcore.Fabric plus a TCP listener. It is safe for concurrent use.
type Fabric struct {
	*streamcore.Fabric
	ln net.Listener

	srvMu    sync.Mutex
	srvConns map[net.Conn]struct{}

	closed    atomic.Bool
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New binds the listener and starts serving. The returned fabric is ready
// for Register/Call immediately; Close releases the port.
func New(opts Options) (*Fabric, error) {
	if opts.Codec != "" && opts.Codec != "bin" {
		return nil, fmt.Errorf("tcptransport: unknown codec %q (the one wire format is bin)", opts.Codec)
	}
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("tcptransport: listen %s: %w", opts.Listen, err)
	}
	addr := opts.AdvertiseAddr
	if addr == "" {
		addr = ln.Addr().String()
	}
	core := streamcore.NewFabric(streamcore.Options{
		Prefix: "tcptransport", Scheme: Scheme, Addr: addr,
		Seed: opts.Seed, CallTimeout: opts.CallTimeout, Dial: dial,
	})
	f := &Fabric{Fabric: core, ln: ln, srvConns: make(map[net.Conn]struct{})}
	f.wg.Add(1)
	go f.acceptLoop()
	return f, nil
}

// Close stops serving, closes every live session and connection, and waits
// for the serving goroutines. It is idempotent.
func (f *Fabric) Close() error {
	f.closeOnce.Do(func() {
		f.closed.Store(true)
		_ = f.ln.Close()
		f.CloseSessions()
		f.srvMu.Lock()
		conns := make([]net.Conn, 0, len(f.srvConns))
		for c := range f.srvConns {
			conns = append(conns, c)
		}
		f.srvConns = make(map[net.Conn]struct{})
		f.srvMu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
		f.wg.Wait()
	})
	return nil
}

// dial is the streamcore.Dialer: connect, then send the hello pinning node.
func dial(addr, node string, timeout time.Duration) (streamcore.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	nc := streamcore.NewNetConn(conn)
	hello := wire.AppendStreamFrame(nil, 0, wire.AppendStreamHello(nil, node))
	if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err == nil {
		defer conn.SetWriteDeadline(time.Time{})
	}
	if _, err := nc.WriteFrames(net.Buffers{hello}); err != nil {
		conn.Close()
		return nil, err
	}
	return nc, nil
}

func (f *Fabric) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.srvMu.Lock()
		if f.closed.Load() {
			f.srvMu.Unlock()
			conn.Close()
			return
		}
		f.srvConns[conn] = struct{}{}
		f.srvMu.Unlock()
		f.wg.Add(1)
		go f.serveConn(conn)
	}
}

// serveConn handles one inbound connection: hello, then the shared fabric
// serves the session until the peer closes its end or the connection
// breaks.
func (f *Fabric) serveConn(conn net.Conn) {
	defer f.wg.Done()
	defer func() {
		f.srvMu.Lock()
		delete(f.srvConns, conn)
		f.srvMu.Unlock()
		conn.Close()
	}()

	nc := streamcore.NewNetConn(conn)
	_, hello, err := nc.ReadFrame(streamcore.MaxFrame)
	if err != nil {
		return
	}
	node, err := wire.ParseStreamHello(hello)
	if err != nil {
		return
	}
	f.ServeConn(node, nc)
}
