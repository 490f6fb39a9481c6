// Package fabrictest is the conformance suite of a networked fabric: the
// behaviour streamcore.Fabric promises regardless of which backend dials
// and accepts its connections. Each backend's test file calls every
// function here with its own constructor (the shape of
// golang.org/x/net/nettest), so the shared half is specified once and
// exercised over each real carrier.
package fabrictest

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/streamcore"
	"repro/internal/transport/wire"
)

// Fabric is what the suite drives: the transport contracts plus the
// deployment surface every networked backend inherits from
// streamcore.Fabric.
type Fabric interface {
	transport.StreamFabric
	transport.FaultInjector
	BaseURL() string
	AddRoute(node, addr string)
	Routes() map[string]string
	Advertise(peer string) ([]string, error)
	Discover(addr string) ([]string, error)
	Stats() transport.Stats
	Close() error
}

// New builds one fabric of the backend under test on a free loopback port.
// The suite closes what it opens.
type New func(t *testing.T) Fabric

func open(t *testing.T, mk New) Fabric {
	t.Helper()
	f := mk(t)
	t.Cleanup(func() { _ = f.Close() })
	return f
}

func constant(v any) transport.Handler {
	return func(string, any) (any, error) { return v, nil }
}

// FaultParity is the ErrDropped/ErrCrashed/ErrPartitioned/ErrUnknownNode
// contract: every fault the in-memory Network can inject maps onto the same
// sentinel error over the wire, checked in the same order, so failover
// logic behaves identically.
func FaultParity(t *testing.T, mk New) {
	f := open(t, mk)
	f.Register("a", constant(true))
	f.Register("b", constant(true))

	t.Run("unknown node", func(t *testing.T) {
		// Resolution precedes the fault table: a crash marker or a loss
		// probability must not turn "no such node" into a transient fault.
		f.Crash("ghost")
		f.SetLoss(0.99)
		defer f.SetLoss(0)
		for i := 0; i < 20; i++ {
			if _, err := f.Call("a", "ghost", "m", nil); !errors.Is(err, transport.ErrUnknownNode) {
				t.Fatalf("err = %v, want ErrUnknownNode", err)
			}
		}
		if _, err := f.OpenSession("a", "ghost"); !errors.Is(err, transport.ErrUnknownNode) {
			t.Fatalf("OpenSession err = %v, want ErrUnknownNode", err)
		}
	})

	t.Run("crashed callee", func(t *testing.T) {
		f.Crash("b")
		if _, err := f.Call("a", "b", "m", nil); !errors.Is(err, transport.ErrCrashed) {
			t.Fatalf("err = %v, want ErrCrashed", err)
		}
	})

	t.Run("crashed caller", func(t *testing.T) {
		if _, err := f.Call("b", "a", "m", nil); !errors.Is(err, transport.ErrCrashed) {
			t.Fatalf("err = %v, want ErrCrashed (sender)", err)
		}
		f.Register("b", constant(true)) // restart clears the crash
		if _, err := f.Call("b", "a", "m", nil); err != nil {
			t.Fatalf("restarted node still crashed: %v", err)
		}
	})

	t.Run("partition and heal", func(t *testing.T) {
		f.Partition("a", "b")
		if _, err := f.Call("a", "b", "m", nil); !errors.Is(err, transport.ErrPartitioned) {
			t.Fatalf("err = %v, want ErrPartitioned", err)
		}
		if _, err := f.Call("b", "a", "m", nil); !errors.Is(err, transport.ErrPartitioned) {
			t.Fatalf("reverse direction err = %v, want ErrPartitioned", err)
		}
		f.Heal("a", "b")
		if _, err := f.Call("a", "b", "m", nil); err != nil {
			t.Fatalf("healed partition still cut: %v", err)
		}
	})

	t.Run("probabilistic drop", func(t *testing.T) {
		f.SetLoss(0.5)
		defer f.SetLoss(0)
		dropped := 0
		for i := 0; i < 50; i++ {
			if _, err := f.Call("a", "b", "m", nil); err != nil {
				if !errors.Is(err, transport.ErrDropped) {
					t.Fatalf("err = %v, want ErrDropped", err)
				}
				dropped++
			}
		}
		if dropped == 0 || dropped == 50 {
			t.Fatalf("dropped %d/50 calls at p=0.5", dropped)
		}
	})

	t.Run("dead process maps to ErrCrashed", func(t *testing.T) {
		peer := open(t, mk)
		peer.Register("remote", constant(true))
		f.AddRoute("remote", peer.BaseURL())
		if _, err := f.Call("a", "remote", "m", nil); err != nil {
			t.Fatalf("live peer call failed: %v", err)
		}
		// Kill the peer process's listener: connection-level failures are
		// the networked form of a crash — including on the session the
		// first call parked in the pool.
		_ = peer.Close()
		if _, err := f.Call("a", "remote", "m", nil); !errors.Is(err, transport.ErrCrashed) {
			t.Fatalf("err = %v, want ErrCrashed after peer death", err)
		}
	})
}

// FaultParityMidSession: crash and partition markers take effect on the
// next call of an already-open session, acknowledged or not — fault checks
// run per frame, not per connection.
func FaultParityMidSession(t *testing.T, mk New) {
	f := open(t, mk)
	f.Register("node", constant(true))
	sess, err := f.OpenSession("caller", "node")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	if _, err := sess.Call("ping", nil); err != nil {
		t.Fatalf("healthy call: %v", err)
	}
	f.Crash("node")
	if _, err := sess.Call("ping", nil); !errors.Is(err, transport.ErrCrashed) {
		t.Fatalf("crashed callee error = %v, want ErrCrashed", err)
	}
	if err := sess.(transport.ElidingSession).SendNoAck("ping", nil); !errors.Is(err, transport.ErrCrashed) {
		t.Fatalf("no-ack send toward a crashed callee = %v, want ErrCrashed", err)
	}
	f.Register("node", constant(true))
	if _, err := sess.Call("ping", nil); err != nil {
		t.Fatalf("restarted callee: %v", err)
	}
	f.Partition("caller", "node")
	if _, err := sess.Call("ping", nil); !errors.Is(err, transport.ErrPartitioned) {
		t.Fatalf("partitioned error = %v, want ErrPartitioned", err)
	}
	f.Heal("caller", "node")
	if _, err := sess.Call("ping", nil); err != nil {
		t.Fatalf("healed call: %v", err)
	}
	f.Crash("caller")
	if _, err := sess.Call("ping", nil); !errors.Is(err, transport.ErrCrashed) {
		t.Fatalf("crashed caller error = %v, want ErrCrashed", err)
	}
}

// DiscoveryAndAdvertise wires two fabrics together through the reserved
// _fabric node: Advertise teaches both sides each other's nodes, Discover
// is one-directional.
func DiscoveryAndAdvertise(t *testing.T, mk New) {
	coordSide := open(t, mk)
	coordSide.Register("coordinator", constant("coordinator here"))
	coordSide.Register("sel-0", constant(true))
	agentSide := open(t, mk)
	agentSide.Register("agg-remote", constant("agg says hi"))

	peerNodes, err := agentSide.Advertise(coordSide.BaseURL())
	if err != nil {
		t.Fatal(err)
	}
	if len(peerNodes) != 2 || peerNodes[0] != "coordinator" || peerNodes[1] != "sel-0" {
		t.Fatalf("peer nodes = %v", peerNodes)
	}
	if out, err := agentSide.Call("agg-remote", "coordinator", "m", "x"); err != nil || out != "coordinator here" {
		t.Fatalf("agent -> coordinator (learned from the advertise response): %v %v", out, err)
	}
	if out, err := coordSide.Call("coordinator", "agg-remote", "assign-task", nil); err != nil || out != "agg says hi" {
		t.Fatalf("coordinator -> agent (learned from the advertisement): %v %v", out, err)
	}

	client := open(t, mk)
	nodes, err := client.Discover(coordSide.BaseURL())
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 {
		t.Fatalf("discovered %v", nodes)
	}
	if out, err := client.Call("client", "sel-0", "ping", nil); err != nil || out != true {
		t.Fatalf("call through a discovered route: %v %v", out, err)
	}
	// Discover announces nothing: the peer has no route back.
	client.Register("client-node", constant(true))
	if _, err := coordSide.Call("coordinator", "client-node", "m", nil); !errors.Is(err, transport.ErrUnknownNode) {
		t.Fatalf("route back after a one-way Discover: %v, want ErrUnknownNode", err)
	}
}

// ReservedNodeNameRejected keeps _fabric, the node discovery is served
// from, off-limits to handlers.
func ReservedNodeNameRejected(t *testing.T, mk New) {
	f := open(t, mk)
	defer func() {
		if recover() == nil {
			t.Fatal("registering the reserved node name did not panic")
		}
	}()
	f.Register("_fabric", constant(nil))
}

// RouteGossipIsTransitive: an agent advertises to the coordinator's fabric;
// a selector that only Discovers the coordinator must learn the agent's
// route from the gossiped document and reach it directly — no full-mesh
// advertisement.
func RouteGossipIsTransitive(t *testing.T, mk New) {
	coordSide := open(t, mk)
	coordSide.Register("coordinator", constant(true))

	agentSide := open(t, mk)
	agentSide.Register("agg-g", constant("agg-g here"))
	if _, err := agentSide.Advertise(coordSide.BaseURL()); err != nil {
		t.Fatal(err)
	}

	selSide := open(t, mk)
	selSide.Register("sel-g", constant(true))
	if _, err := selSide.Discover(coordSide.BaseURL()); err != nil {
		t.Fatal(err)
	}
	// Routes are in route-table form: the base URL less the backend's
	// scheme prefix, if it has one.
	if got := selSide.Routes()["agg-g"]; got == "" || !strings.HasSuffix(agentSide.BaseURL(), got) {
		t.Fatalf("gossiped route for agg-g = %q, want %q", got, agentSide.BaseURL())
	}
	if out, err := selSide.Call("sel-g", "agg-g", "join", nil); err != nil || out != "agg-g here" {
		t.Fatalf("selector -> gossiped agent: %v %v", out, err)
	}
	// Gossip never overrides what a fabric serves itself, nor points a
	// fabric at its own address.
	if _, err := agentSide.Discover(coordSide.BaseURL()); err != nil {
		t.Fatal(err)
	}
	if _, ok := agentSide.Routes()["agg-g"]; ok {
		t.Fatalf("agent adopted a gossiped route to its own node: %v", agentSide.Routes())
	}
}

// ack is a chunk acknowledgement that, like the server's upload response,
// opts out of the wire when OK. The suite registers it under its own ID so
// it needs nothing from the control plane.
type ack struct {
	OK     bool
	Reason string
}

const ackID = 241

func (a *ack) fields(f *wire.Fields) {
	f.Bool(&a.OK)
	f.String(&a.Reason)
}

// AppendBinary implements wire.BinaryMessage.
func (a ack) AppendBinary(dst []byte) []byte {
	f := wire.AppendFields(dst, ackID)
	a.fields(&f)
	return f.Appended()
}

// AckElidable implements transport.AckElidable.
func (a ack) AckElidable() bool { return a.OK }

func init() {
	wire.Register(ackID, "papaya/test/fabrictest.ack", func(b []byte) (any, error) {
		var a ack
		f := wire.DecodeFields(b)
		a.fields(&f)
		return a, f.Done()
	})
}

// methodLog is a handler that records the methods it saw, under its own
// lock: it runs on the serving goroutine and the only ordering toward the
// test's reads is socket I/O, which the race detector cannot see.
type methodLog struct {
	mu      sync.Mutex
	methods []string
}

func (l *methodLog) handle(method string, _ any) (any, error) {
	l.mu.Lock()
	l.methods = append(l.methods, method)
	l.mu.Unlock()
	if method == "bad" {
		return ack{OK: false, Reason: "nope"}, nil
	}
	return ack{OK: true}, nil
}

func (l *methodLog) seen() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.methods...)
}

// AckElideEndToEnd: non-final chunk sends ride a dedicated session without
// acknowledgements, the serving side invokes every one of them, and only
// the final acked call crosses with a reply. The counters prove acks were
// actually elided and the coalesced flush batched the queued frames.
func AckElideEndToEnd(t *testing.T, mk New) {
	f := open(t, mk)
	log := &methodLog{}
	f.Register("agg", log.handle)
	sess, err := f.OpenSession("client-1", "agg")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	es, ok := sess.(transport.ElidingSession)
	if !ok || !es.ElidesAcks() {
		t.Fatalf("session does not elide (ok=%v)", ok)
	}
	for i := 0; i < 5; i++ {
		if err := es.SendNoAck("chunk", fmt.Sprintf("chunk %d", i)); err != nil {
			t.Fatalf("no-ack send %d: %v", i, err)
		}
	}
	out, err := es.Call("done", "chunk 99")
	if err != nil {
		t.Fatalf("final acked call: %v", err)
	}
	if ur := out.(ack); !ur.OK {
		t.Fatalf("final response = %+v", ur)
	}
	if got := log.seen(); len(got) != 6 || got[0] != "chunk" || got[5] != "done" {
		t.Fatalf("handler saw %v", got)
	}
	st := f.Stats()
	if st.AcksElided < 5 {
		t.Fatalf("AcksElided = %d, want >= 5", st.AcksElided)
	}
	if st.FramesCoalesced == 0 {
		t.Fatal("queued no-ack frames never coalesced into a batched write")
	}
	_ = sess.Close()
	if es.ElidesAcks() {
		t.Fatal("closed session still offers elision")
	}
	if err := es.SendNoAck("chunk", nil); !errors.Is(err, transport.ErrCrashed) {
		t.Fatalf("no-ack send after Close = %v, want ErrCrashed", err)
	}
}

// AckElideHeldFailureSurfacesOnNextCall: the no-ack serving protocol — the
// first non-suppressible response to an elided frame is held, later elided
// frames are drained without dispatch, and the next acknowledged call is
// answered with the held response instead of being invoked. This is what
// lets an elided chunk train fail loudly on its Done chunk.
func AckElideHeldFailureSurfacesOnNextCall(t *testing.T, mk New) {
	f := open(t, mk)
	log := &methodLog{}
	f.Register("agg", log.handle)
	sess, err := f.OpenSession("client-1", "agg")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	es := sess.(transport.ElidingSession)
	for _, m := range []string{"ok", "bad", "after"} {
		if err := es.SendNoAck(m, "t"); err != nil {
			t.Fatalf("no-ack %s: %v", m, err)
		}
	}
	out, err := es.Call("final", "t")
	if err != nil {
		t.Fatalf("acked call after held failure: %v", err)
	}
	if ur := out.(ack); ur.OK || ur.Reason != "nope" {
		t.Fatalf("held response = %+v, want the bad chunk's failure", ur)
	}
	if got := log.seen(); len(got) != 2 || got[0] != "ok" || got[1] != "bad" {
		t.Fatalf("handler saw %v; after and final must not be invoked", got)
	}
}

// corruptConn rewrites the envelope version of every frame it sends once
// armed — a caller from a build one wire version ahead.
type corruptConn struct {
	streamcore.Conn
	armed bool
}

func (c *corruptConn) WriteFrames(bufs net.Buffers) (int64, error) {
	if c.armed {
		for _, b := range bufs {
			_, payload, _, err := wire.ReadStreamFrame(b, streamcore.MaxFrame)
			if err != nil {
				return 0, err
			}
			payload[2] = wire.Version + 1 // payload aliases b
		}
	}
	return c.Conn.WriteFrames(bufs)
}

// UnknownVersionKillsSession is wire versioning rule 1 over a real carrier:
// dial opens a raw connection to node on a live fabric with the backend's
// own dialer, a healthy call crosses, then a frame claiming envelope
// Version+1 arrives — the server ends the session instead of guessing or
// negotiating, and the caller sees ErrCrashed.
func UnknownVersionKillsSession(t *testing.T, mk New, dial func(f Fabric, node string) (streamcore.Conn, error)) {
	f := open(t, mk)
	log := &methodLog{}
	f.Register("node", log.handle)
	raw, err := dial(f, "node")
	if err != nil {
		t.Fatal(err)
	}
	conn := &corruptConn{Conn: raw}
	s := streamcore.NewSession(conn, streamcore.Config{
		Node: "node", Prefix: "fabrictest", MaxFrame: streamcore.MaxFrame,
		CallTimeout: 5 * time.Second, Counters: &streamcore.Counters{},
	})
	defer s.Teardown()
	if _, err, _ := s.Do("future-build", "hello", nil); err != nil {
		t.Fatalf("healthy call over the raw connection: %v", err)
	}
	conn.armed = true
	if _, err, _ := s.Do("future-build", "hello", nil); !errors.Is(err, transport.ErrCrashed) || !s.Broken() {
		t.Fatalf("Version+1 frame: err = %v (broken=%v), want ErrCrashed on a dead session", err, s.Broken())
	}
	if got := log.seen(); len(got) != 1 {
		t.Fatalf("handler saw %v; the Version+1 frame must not be dispatched", got)
	}
	// The fabric itself is unharmed.
	if _, err := f.Call("c", "node", "hello", nil); err != nil {
		t.Fatalf("call after a killed session: %v", err)
	}
}

// CloseDoesNotLeakGoroutines opens sessions and fabrics, closes them, and
// checks the goroutine count settles back to its baseline.
func CloseDoesNotLeakGoroutines(t *testing.T, mk New) {
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		f := mk(t)
		f.Register("node", constant(true))
		for j := 0; j < 4; j++ {
			sess, err := f.OpenSession("c", "node")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Call("ping", nil); err != nil {
				t.Fatal(err)
			}
			if j%2 == 0 {
				sess.Close() // the rest are left for the fabric's Close
			}
		}
		// The pooled-call path parks a session too.
		if _, err := f.Call("c", "node", "ping", nil); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Call("c", "node", "ping", nil); !errors.Is(err, transport.ErrCrashed) {
			t.Fatalf("call on a closed fabric = %v, want ErrCrashed", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines: %d at start, %d after close\n%s",
		base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}
