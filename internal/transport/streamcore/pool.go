package streamcore

import "sync"

// Pool is the idle-session cache both networked fabrics used to duplicate:
// healthy sessions park per (address, node) key for reuse by Fabric.Call,
// every live session is tracked so fabric Close can tear them all down,
// and the idle cap bounds what survives a burst.
type Pool struct {
	mu      sync.Mutex
	closed  bool
	maxIdle int
	idle    map[string][]*Session
	all     map[*Session]struct{}
}

// NewPool creates a pool keeping at most maxIdle idle sessions per key.
func NewPool(maxIdle int) *Pool {
	return &Pool{
		maxIdle: maxIdle,
		idle:    make(map[string][]*Session),
		all:     make(map[*Session]struct{}),
	}
}

// Take pops a cached idle session for key, or returns nil when the caller
// should open a fresh one.
func (p *Pool) Take(key string) *Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	if idle := p.idle[key]; len(idle) > 0 {
		s := idle[len(idle)-1]
		p.idle[key] = idle[:len(idle)-1]
		return s
	}
	return nil
}

// Track registers a freshly opened session for Close bookkeeping. It
// reports false when the pool already closed — the session lost the race
// against fabric Close and the caller must tear it down (a session
// registered now would never be torn down; Close already snapshotted).
func (p *Pool) Track(s *Session) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.all[s] = struct{}{}
	return true
}

// Release returns a healthy session to the idle cache; broken, closed, or
// over-cap sessions are discarded instead.
func (p *Pool) Release(key string, s *Session) {
	if s.Broken() || s.Closed() {
		p.Discard(s)
		return
	}
	p.mu.Lock()
	if !p.closed && len(p.idle[key]) < p.maxIdle {
		p.idle[key] = append(p.idle[key], s)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.Discard(s)
}

// Discard forgets a session and tears it down for good.
func (p *Pool) Discard(s *Session) {
	p.mu.Lock()
	delete(p.all, s)
	p.mu.Unlock()
	s.Teardown()
}

// DropIdle tears down every idle session parked under key: the fabric
// calls it when key's node moved to another address, after which nothing
// would Take them again. (A call in flight across the move still parks its
// session under the old key; that one waits for Close.)
func (p *Pool) DropIdle(key string) {
	p.mu.Lock()
	idle := p.idle[key]
	delete(p.idle, key)
	for _, s := range idle {
		delete(p.all, s)
	}
	p.mu.Unlock()
	for _, s := range idle {
		s.Teardown()
	}
}

// Close marks the pool closed and tears down every tracked session. It is
// idempotent; sessions opened after Close fail Track and never register.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	sessions := make([]*Session, 0, len(p.all))
	for s := range p.all {
		sessions = append(sessions, s)
	}
	p.all = make(map[*Session]struct{})
	p.idle = make(map[string][]*Session)
	p.mu.Unlock()
	for _, s := range sessions {
		s.Teardown()
	}
}
