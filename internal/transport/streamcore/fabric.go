package streamcore

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// fabricNode is the reserved node name serving the fabric's own discovery
// and advertisement methods; real node names must not collide with it.
const fabricNode = "_fabric"

// Dialer opens one framed Conn to the fabric at addr with every request on
// it addressed to node, bounded by timeout — the client half of what a
// backend supplies. The server half hands each accepted conn to
// Fabric.ServeConn.
type Dialer func(addr, node string, timeout time.Duration) (Conn, error)

// Options configures the shared half of a networked fabric for the backend
// that embeds it.
type Options struct {
	// Prefix is the backend's error prefix ("httptransport",
	// "tcptransport").
	Prefix string
	// Scheme is stripped from every address entering the route table
	// ("tcp://" on the raw-TCP backend, whose routes are host:port; "" on
	// HTTP, whose routes are base URLs) and prefixed back by BaseURL.
	Scheme string
	// Addr is the address peers dial this fabric at, with or without
	// Scheme.
	Addr string
	// Seed seeds the probabilistic-loss RNG (SetLoss); 0 is a valid seed.
	Seed int64
	// CallTimeout bounds one call end to end (default 30s), enforced with
	// connection deadlines so a blackholed peer fails fast: every failover
	// path is built on calls failing, not hanging.
	CallTimeout time.Duration
	// Dial opens connections toward peers (and toward this fabric's own
	// listener: local calls cross the real wire too).
	Dial Dialer
}

// Fabric is the backend-independent half of a networked transport.Fabric:
// the node and route tables, fault injection, pooled calls, dedicated
// sessions, dispatch and discovery. Backends embed it and add a listener.
// It is safe for concurrent use.
type Fabric struct {
	prefix      string
	scheme      string
	addr        string // route-table form of this fabric's own address
	dial        Dialer
	callTimeout time.Duration

	mu     sync.RWMutex
	local  map[string]transport.Handler
	routes map[string]string // node name -> peer address

	// Faults is the injected-fault table, promoted so Fabric implements
	// transport.FaultInjector.
	transport.Faults

	// counters feed Stats; the session engine updates them on both halves.
	counters Counters

	// pool caches idle Call sessions per "addr|node" key and tracks every
	// live client session for CloseSessions.
	pool *Pool
}

// NewFabric returns the shared fabric, ready for Register/Call as soon as
// the backend's listener accepts.
func NewFabric(opts Options) *Fabric {
	callTimeout := opts.CallTimeout
	if callTimeout == 0 {
		callTimeout = 30 * time.Second
	}
	f := &Fabric{
		prefix:      opts.Prefix,
		scheme:      opts.Scheme,
		addr:        strings.TrimPrefix(opts.Addr, opts.Scheme),
		dial:        opts.Dial,
		callTimeout: callTimeout,
		local:       make(map[string]transport.Handler),
		routes:      make(map[string]string),
		pool:        NewPool(maxIdleSessionsPerPeer),
	}
	f.InitFaults(opts.Seed)
	return f
}

// BaseURL returns the URL peers use to reach this fabric.
func (f *Fabric) BaseURL() string { return f.scheme + f.addr }

// Stats returns a snapshot of the fabric's traffic counters.
func (f *Fabric) Stats() transport.Stats { return f.counters.Snapshot() }

// CloseSessions tears down every live client session; the backend's Close
// calls it alongside closing its listener. Idempotent.
func (f *Fabric) CloseSessions() { f.pool.Close() }

// Register attaches a node served from this process. Re-registering a name
// replaces its handler and clears any crash marker (a restarted process).
func (f *Fabric) Register(name string, h transport.Handler) {
	if h == nil {
		panic(f.prefix + ": nil handler")
	}
	if name == fabricNode {
		panic(f.prefix + ": node name " + fabricNode + " is reserved")
	}
	f.mu.Lock()
	f.local[name] = h
	f.mu.Unlock()
	f.ClearCrash(name)
}

// Unregister detaches a locally served node.
func (f *Fabric) Unregister(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.local, name)
}

// AddRoute teaches this fabric that node lives at a peer fabric's address
// (with or without the backend's scheme prefix). When that moves the node
// (a process restarted on a new port), the idle sessions pooled toward its
// old address are dropped: no call would reuse them, and parked sessions
// hold their sockets until Close.
func (f *Fabric) AddRoute(node, addr string) {
	addr = strings.TrimPrefix(addr, f.scheme)
	f.mu.Lock()
	old := f.routes[node]
	f.routes[node] = addr
	f.mu.Unlock()
	if old != "" && old != addr {
		f.pool.DropIdle(sessionKey(old, node))
	}
}

// Nodes returns the locally served, non-crashed node names, sorted.
func (f *Fabric) Nodes() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.local))
	for name := range f.local {
		if !f.Crashed(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Routes returns a copy of the remote routes this fabric knows (node name
// -> address in route-table form), from AddRoute, Advertise/Discover
// exchanges, and gossip. It is what the discovery document gossips onward.
func (f *Fabric) Routes() map[string]string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make(map[string]string, len(f.routes))
	for node, addr := range f.routes {
		out[node] = addr
	}
	return out
}

// checkCall resolves where to reach to and applies the injected-fault
// checks in the in-memory Network's order (unknown node first, then the
// shared transport.Faults table); every call runs through it, elided or
// not, so fault parity holds frame by frame.
func (f *Fabric) checkCall(from, to, method string) (addr string, err error) {
	f.mu.RLock()
	_, isLocal := f.local[to]
	addr = f.routes[to]
	f.mu.RUnlock()

	if isLocal {
		addr = f.addr
	}
	if addr == "" {
		return "", fmt.Errorf("%w: %s", transport.ErrUnknownNode, to)
	}
	if err := f.CheckCall(from, to, method); err != nil {
		return "", err
	}
	return addr, nil
}

// --- client side ---

// dialSession opens a connection to addr pinned to node and registers the
// resulting session for CloseSessions bookkeeping. The request frame
// carries From, so pooled sessions serve any caller.
func (f *Fabric) dialSession(addr, node string) (*Session, error) {
	conn, err := f.dial(addr, node, f.callTimeout)
	if err != nil {
		return nil, err
	}
	s := NewSession(conn, Config{
		Node:        node,
		Prefix:      f.prefix,
		CallTimeout: f.callTimeout,
		MaxFrame:    MaxFrame,
		Counters:    &f.counters,
	})
	if !f.pool.Track(s) {
		// Lost the race against Close: a session registered now would
		// never be torn down (Close already snapshotted the pool).
		_ = conn.Close()
		return nil, errors.New(f.prefix + ": fabric closed")
	}
	return s, nil
}

func sessionKey(addr, node string) string { return addr + "|" + node }

// Call implements transport.Fabric: fault checks in the in-memory order,
// then one framed request over a pooled one-shot session to wherever the
// callee lives — through the loopback listener when it is this process, so
// every call exercises the full wire path.
func (f *Fabric) Call(from, to, method string, payload any) (any, error) {
	addr, err := f.checkCall(from, to, method)
	if err != nil {
		return nil, err
	}
	return f.callAt(addr, from, to, method, payload)
}

// callAt borrows a pooled session to node at addr (or dials one) for one
// exchange; a stale pooled session is replaced as upstream.roundTripAt
// describes. The session goes back to the pool once the answer is decoded
// (discarded instead if the exchange or the decode broke it).
func (f *Fabric) callAt(addr, from, node, method string, payload any) (any, error) {
	u := upstream{f: f, from: from}
	defer u.unpin()
	raw, err := u.roundTripAt(addr, node, method, payload)
	if err != nil {
		return nil, err
	}
	return u.s.decode(raw)
}

// boundSession is a transport.Session pinned to a (from, to) pair over a
// dedicated connection — one connection per participation, the paper's
// virtual session (Section 6.1).
type boundSession struct {
	f        *Fabric
	s        *Session
	from, to string
	closed   bool
}

var _ transport.ElidingSession = (*boundSession)(nil)

// Call implements transport.Session: the same injected-fault checks as
// Fabric.Call run per call, then the frame rides the pinned connection.
func (b *boundSession) Call(method string, payload any) (any, error) {
	if b.closed {
		return nil, fmt.Errorf("%w: session closed", transport.ErrCrashed)
	}
	if _, err := b.f.checkCall(b.from, b.to, method); err != nil {
		return nil, err
	}
	out, err, _ := b.s.Do(b.from, method, payload)
	return out, err
}

// ElidesAcks implements transport.ElidingSession: every networked session
// elides until it is closed.
func (b *boundSession) ElidesAcks() bool { return !b.closed }

// SendNoAck implements transport.ElidingSession: the same injected-fault
// checks run per elided call (fault parity frame by frame), then the no-ack
// frame queues to coalesce into the session's next flush.
func (b *boundSession) SendNoAck(method string, payload any) error {
	if b.closed {
		return fmt.Errorf("%w: session closed", transport.ErrCrashed)
	}
	if _, err := b.f.checkCall(b.from, b.to, method); err != nil {
		return err
	}
	return b.s.SendNoAck(b.from, method, payload)
}

// Close implements transport.Session; the connection close is the server's
// natural end-of-session signal (dead clients are instead reaped by the
// aggregator's session TTL).
func (b *boundSession) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	b.f.pool.Discard(b.s)
	return nil
}

// OpenSession implements transport.StreamFabric: a dedicated connection for
// the session's lifetime.
func (f *Fabric) OpenSession(from, to string) (transport.Session, error) {
	addr, err := f.checkCall(from, to, "open-session")
	if err != nil {
		return nil, err
	}
	s, err := f.dialSession(addr, to)
	if err != nil {
		return nil, fmt.Errorf("%w: %s unreachable: %v", transport.ErrCrashed, to, err)
	}
	return &boundSession{f: f, s: s, from: from, to: to}, nil
}

// --- server side ---

// ServeConn runs one accepted connection whose frames address node until
// the peer closes its end or the connection breaks; the caller owns conn
// cleanup. Every frame goes through the same fault-check dispatch,
// including the no-ack suppression path, and node's transport.Forward
// answers are relayed from here.
func (f *Fabric) ServeConn(node string, conn Conn) {
	Serve(conn, ServeConfig{
		MaxFrame: MaxFrame,
		Prefix:   f.prefix,
		Counters: &f.counters,
		Invoke: func(req *wire.Request) *wire.Response {
			return f.dispatch(node, req)
		},
		relay: &upstream{f: f, from: node},
	})
}

// dispatch runs the server-side fault checks and the handler for one
// decoded request addressed to node; the reserved _fabric node serves
// discovery and advertisement.
func (f *Fabric) dispatch(node string, req *wire.Request) *wire.Response {
	if node == fabricNode {
		out, err := f.fabricMethod(req)
		if err != nil {
			return &wire.Response{Err: err.Error()}
		}
		return &wire.Response{Payload: out}
	}
	f.mu.RLock()
	h, ok := f.local[node]
	f.mu.RUnlock()

	switch {
	case !ok:
		return &wire.Response{Kind: transport.KindUnknownNode, Err: node}
	case f.Crashed(node):
		return &wire.Response{Kind: transport.KindCrashed, Err: node}
	case f.Cut(req.From, node):
		return &wire.Response{Kind: transport.KindPartitioned, Err: req.From + " <-> " + node}
	}
	out, err := f.safeInvoke(h, req.Method, req.Payload)
	if err != nil {
		return &wire.Response{Kind: transport.ErrorToKind(err), Err: err.Error()}
	}
	return &wire.Response{Payload: out}
}

// safeInvoke contains handler panics. In-memory callers are trusted code,
// but network peers are not: a well-formed frame carrying the wrong
// registered type for a method would otherwise panic the handler's type
// assertion — a remote crash lever. The panic becomes an ordinary
// application error on the wire.
func (f *Fabric) safeInvoke(h transport.Handler, method string, payload any) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: handler panic on %q: %v", f.prefix, method, r)
		}
	}()
	return h(method, payload)
}

// --- discovery / advertisement ---

// nodesDoc is the discovery document exchanged by _nodes and _advertise,
// carried as a JSON string payload: which nodes a fabric serves and where.
type nodesDoc struct {
	// BaseURL is the advertising fabric's dialable URL.
	BaseURL string `json:"base_url"`
	// Nodes lists the fabric's locally served node names.
	Nodes []string `json:"nodes"`
	// Routes gossips the remote routes this fabric has learned (node name
	// -> address), making discovery transitive: a selector that Discovers
	// only the coordinator still learns where every advertised aggregator
	// lives, without a full-mesh advertise. Receivers treat it as
	// best-effort hints — local registrations always win.
	Routes map[string]string `json:"routes,omitempty"`
}

func (f *Fabric) selfDoc() (string, error) {
	doc, err := json.Marshal(nodesDoc{BaseURL: f.BaseURL(), Nodes: f.Nodes(), Routes: f.Routes()})
	return string(doc), err
}

// fabricMethod serves the reserved-node methods.
func (f *Fabric) fabricMethod(req *wire.Request) (any, error) {
	switch req.Method {
	case "_nodes":
		return f.selfDoc()
	case "_advertise":
		raw, _ := req.Payload.(string)
		var doc nodesDoc
		if err := json.Unmarshal([]byte(raw), &doc); err != nil {
			return nil, fmt.Errorf("%s: decoding advertisement: %w", f.prefix, err)
		}
		if doc.BaseURL == "" {
			return nil, errors.New(f.prefix + ": advertisement missing base_url")
		}
		f.recordPeer(doc)
		return f.selfDoc()
	default:
		return nil, fmt.Errorf("%s: unknown fabric method %q", f.prefix, req.Method)
	}
}

// recordPeer stores a peer's routes. Gossiped third-party routes are
// adopted as-is (newest gossip wins, so a node that moved is re-learned on
// the next exchange); nodes this fabric serves locally, and routes pointing
// back at this fabric, are skipped.
func (f *Fabric) recordPeer(doc nodesDoc) {
	for _, node := range doc.Nodes {
		f.AddRoute(node, doc.BaseURL)
	}
	for node, base := range doc.Routes {
		f.mu.RLock()
		_, isLocal := f.local[node]
		f.mu.RUnlock()
		if !isLocal && strings.TrimPrefix(base, f.scheme) != f.addr {
			f.AddRoute(node, base)
		}
	}
}

// fabricCall performs one call to the reserved node of the fabric at addr,
// returning the peer document it answers with — the client half of
// discovery/advertisement. It rides the same pooled sessions as Call, so a
// process that re-discovers a peer on a timer reuses one connection.
func (f *Fabric) fabricCall(addr, method string, payload any) (nodesDoc, error) {
	var doc nodesDoc
	out, err := f.callAt(strings.TrimPrefix(addr, f.scheme), f.BaseURL(), fabricNode, method, payload)
	if err != nil {
		return doc, err
	}
	raw, _ := out.(string)
	err = json.Unmarshal([]byte(raw), &doc)
	return doc, err
}

// Advertise announces this fabric's locally served nodes to the peer fabric
// at peerAddr, so the peer can route calls back here (an agent process
// announcing its Aggregator to the coordinator process), and returns the
// peer's own node list for symmetric route setup.
func (f *Fabric) Advertise(peerAddr string) ([]string, error) {
	self, err := f.selfDoc()
	if err != nil {
		return nil, err
	}
	doc, err := f.fabricCall(peerAddr, "_advertise", self)
	if err != nil {
		return nil, fmt.Errorf("%s: advertising to %s: %w", f.prefix, peerAddr, err)
	}
	f.recordPeer(doc)
	return doc.Nodes, nil
}

// Discover fetches the node inventory of the fabric at addr and adds a
// route for every node it serves or gossips.
func (f *Fabric) Discover(addr string) ([]string, error) {
	doc, err := f.fabricCall(addr, "_nodes", nil)
	if err != nil {
		return nil, fmt.Errorf("%s: listing nodes at %s: %w", f.prefix, addr, err)
	}
	// Route through the address this fabric actually reached the peer at:
	// behind NAT or port forwarding the advertised one may be unreachable
	// from here.
	doc.BaseURL = addr
	f.recordPeer(doc)
	return doc.Nodes, nil
}
