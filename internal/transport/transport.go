// Package transport defines the RPC fabric connecting the production-style
// PAPAYA components (Coordinator, Selectors, Aggregators, clients; Section 4)
// and provides the in-memory reference implementation. Components program
// against the Fabric interface, so the same control plane runs over the
// deterministic in-memory Network in tests and over real sockets between OS
// processes via internal/transport/streamcore (dialed over HTTP by
// httptransport, over raw TCP by tcptransport). The in-memory backend
// stands in for the data-center network: synchronous request/response calls
// with injectable latency, message loss, partitions, and node crashes, so the
// failure-recovery behaviour of Appendix E.4 can be exercised
// deterministically.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/transport/wire"
)

// Handler processes one request addressed to a node. Instead of an answer
// it may return a Forward, which the fabric executes.
type Handler func(method string, payload any) (any, error)

// Forward is a handler's answer that relays the call it is serving to
// another node: the selector's in-session routing (Appendix E.4 "Client
// Routing"). The handler decides where the call goes; the fabric moves it
// and hands the caller the target's answer as if it had called the target
// itself. The in-memory Network executes a Forward as one plain Call from
// the relaying node. A networked fabric executes it on an upstream session
// pinned to the inbound one, so an elided chunk train crosses the second
// hop as one train and the answer travels back as the bytes it arrived as.
type Forward struct {
	// To is the node the call is relayed to; Method and Payload are the
	// relayed call.
	To, Method string
	Payload    any
	// Reresolve, when non-nil, names a new target after a forward that
	// failed while nothing else was outstanding toward the old one; the
	// fabric retries there once.
	Reresolve func() (string, error)
	// Done, when non-nil, observes the end of the forwarded exchange with
	// the error its caller sees (nil for a good answer). For a call sent
	// without an acknowledgement the exchange ends when the frame is queued
	// upstream.
	Done func(error)
}

// Fabric is the RPC surface the control plane is written against: named
// nodes exchanging synchronous request/response calls (the paper's
// Coordinator <-> Aggregator <-> Selector <-> client protocols, Section 4).
// Implementations must be safe for concurrent use. Two exist: the
// in-memory Network below (deterministic, fault-injectable, the test
// fabric) and streamcore.Fabric (real sockets between processes, embedded
// by the httptransport and tcptransport backends).
type Fabric interface {
	// Call sends a synchronous request from one node to another and
	// returns the response. Transport-level failures are reported as (or
	// wrap) ErrUnknownNode, ErrPartitioned, ErrDropped, or ErrCrashed;
	// components treat all of them as transient and retry through their
	// failover paths (Appendix E.4).
	Call(from, to, method string, payload any) (any, error)
	// Register attaches a node under a name, replacing any previous
	// handler (a restarted process) and clearing its crash marker.
	Register(name string, h Handler)
	// Unregister detaches a node entirely.
	Unregister(name string)
}

// FaultInjector is the optional fault-injection surface a Fabric may offer
// so the failure-recovery protocols of Appendix E.4 can be exercised. Both
// the in-memory Network and the networked fabric implement it; the
// conformance suite in internal/server runs the same failover tests against
// each.
type FaultInjector interface {
	// Crash marks a node as crashed: calls to and from it fail with
	// ErrCrashed until it re-registers.
	Crash(name string)
	// Partition cuts connectivity between a and b (both directions).
	Partition(a, b string)
	// Heal restores connectivity between a and b.
	Heal(a, b string)
	// SetLoss sets the independent per-call drop probability in [0, 1).
	SetLoss(p float64)
	// SetLatency sets a fixed one-way call latency (applied once per call).
	SetLatency(d time.Duration)
}

// Network implements both interfaces; the networked backends assert the
// same at their definition sites.
var (
	_ Fabric        = (*Network)(nil)
	_ FaultInjector = (*Network)(nil)
)

// Errors surfaced to callers. Components treat all of them as transient and
// retry through their failover paths.
var (
	ErrUnknownNode = errors.New("transport: unknown node")
	ErrPartitioned = errors.New("transport: nodes are partitioned")
	ErrDropped     = errors.New("transport: message dropped")
	ErrCrashed     = errors.New("transport: node crashed")
)

// Network is the in-memory Fabric: it routes calls between registered nodes
// within one process, with deterministic fault injection (the test backend;
// Appendix E.4 failure drills run here). It is safe for concurrent use.
type Network struct {
	mu       sync.RWMutex
	nodes    map[string]Handler
	crashed  map[string]bool
	cuts     map[[2]string]bool
	lossProb float64
	latency  time.Duration
	rnd      *rand.Rand
	rndMu    sync.Mutex
}

// NewNetwork returns an empty network with no faults.
func NewNetwork(seed int64) *Network {
	return &Network{
		nodes:   make(map[string]Handler),
		crashed: make(map[string]bool),
		cuts:    make(map[[2]string]bool),
		rnd:     rand.New(rand.NewSource(seed)),
	}
}

// Register attaches a node. Re-registering a name replaces its handler and
// clears any crash marker (a restarted process).
func (n *Network) Register(name string, h Handler) {
	if h == nil {
		panic("transport: nil handler")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[name] = h
	delete(n.crashed, name)
}

// Unregister detaches a node entirely.
func (n *Network) Unregister(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, name)
}

// Crash marks a node as crashed: calls to it fail until it re-registers.
func (n *Network) Crash(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[name] = true
}

// Partition cuts connectivity between a and b (both directions).
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cuts[cutKey(a, b)] = true
}

// Heal restores connectivity between a and b.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cuts, cutKey(a, b))
}

// SetLoss sets the independent per-call drop probability.
func (n *Network) SetLoss(p float64) {
	if p < 0 || p >= 1 {
		panic("transport: loss probability must be in [0, 1)")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lossProb = p
}

// SetLatency sets a fixed one-way call latency (applied once per call).
func (n *Network) SetLatency(d time.Duration) {
	if d < 0 {
		panic("transport: negative latency")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency = d
}

func cutKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Call sends a synchronous request from one node to another and returns the
// response. Fault checks happen before the handler runs, so a dropped or
// partitioned call has no server-side effect.
func (n *Network) Call(from, to, method string, payload any) (any, error) {
	n.mu.RLock()
	h, ok := n.nodes[to]
	crashedTo := n.crashed[to]
	crashedFrom := n.crashed[from]
	cut := n.cuts[cutKey(from, to)]
	loss := n.lossProb
	latency := n.latency
	n.mu.RUnlock()

	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	if crashedTo {
		return nil, fmt.Errorf("%w: %s", ErrCrashed, to)
	}
	// A crashed process cannot send either: without this, a "dead"
	// aggregator would keep heartbeating and failure detection could never
	// fire.
	if crashedFrom {
		return nil, fmt.Errorf("%w: %s (sender)", ErrCrashed, from)
	}
	if cut {
		return nil, fmt.Errorf("%w: %s <-> %s", ErrPartitioned, from, to)
	}
	if loss > 0 {
		n.rndMu.Lock()
		drop := n.rnd.Float64() < loss
		n.rndMu.Unlock()
		if drop {
			return nil, fmt.Errorf("%w: %s -> %s %s", ErrDropped, from, to, method)
		}
	}
	if latency > 0 {
		time.Sleep(latency)
	}
	out, err := h(method, payload)
	if fwd, ok := out.(Forward); ok && err == nil {
		return n.forward(to, fwd)
	}
	// A pre-encoded response (a published model version) reaches the
	// caller as the decode of its frame, exactly what a networked caller
	// gets: caller-owned memory, never the frame every caller shares.
	if enc, ok := out.(wire.EncodedResponse); ok && err == nil {
		resp, derr := wire.Binary{}.DecodeResponse(enc.ResponseFrame())
		if derr != nil {
			return nil, fmt.Errorf("transport: decoding %s's encoded %s response: %w", to, method, derr)
		}
		out = resp.Payload
	}
	return out, err
}

// forward executes a handler's Forward as one plain Call from the relaying
// node, retried once at the re-resolved target when it fails. The answer is
// the target's own, already decoded by that Call if it came pre-encoded.
func (n *Network) forward(from string, fwd Forward) (any, error) {
	out, err := n.Call(from, fwd.To, fwd.Method, fwd.Payload)
	if err != nil && fwd.Reresolve != nil {
		var to string
		if to, err = fwd.Reresolve(); err == nil {
			out, err = n.Call(from, to, fwd.Method, fwd.Payload)
		}
	}
	if fwd.Done != nil {
		fwd.Done(err)
	}
	return out, err
}

// Nodes returns the names of all registered, non-crashed nodes.
func (n *Network) Nodes() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.nodes))
	for name := range n.nodes {
		if !n.crashed[name] {
			out = append(out, name)
		}
	}
	return out
}
